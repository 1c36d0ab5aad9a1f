import numpy as np
import pytest

from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.cli import run
from covdilate.covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                                 GnsStrategy, haar_unitary, hb_extend)
from covdilate.cpmaps import CPMap, stinespring_gram
from covdilate.dilation import (DilationRecord, explicit_matricial_unitary,
                                schaffer_dilate)
from covdilate.equivalence import (EquivalenceCertificate, GramWitness,
                                   _gram_mismatch_witness,
                                   chain_intertwiner, dilation_intertwiner,
                                   stinespring_intertwiner)
from covdilate.errors import LevelMismatch, SpanDeficient
from covdilate.extension import coisometric_extend
from covdilate.numerics import DEFAULT_TOL, UpperBound, block_diag, spectral_norm
from covdilate.report import clause
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import (ShiftTower, TowerExpectation, TowerTransfer,
                             shift_down_pair, state_density)

from conftest import random_covariant_contraction, rotated_step

SCALARS = FiniteDimCStarAlgebra((1,))


def finite_pair(seed=0, norm=0.8):
    rng = np.random.default_rng(seed)
    algebra = FiniteDimCStarAlgebra((2,))
    alpha = StarHom.inner_automorphism(algebra.element([haar_unitary(2, rng)]))
    pi = Representation.from_multiplicities(algebra, [2], haar_unitary(4, rng))
    system = FiniteDimSystem(algebra, alpha)
    t = random_covariant_contraction(system, pi, rng, norm)
    pair = CovariantPair(system, pi, t)
    return pair, AdaptedStrategy(CPMap.from_hom(alpha.inverse()))


def tower_pair(rep_depth=2, scale=0.9):
    tower = ShiftTower(2, rep_depth + 3)
    pair = shift_down_pair(tower, rep_depth, 1, scale, [1, 0], [0, 1])
    return tower, pair


def test_stinespring_intertwiner_identical_inputs():
    pair, strat = finite_pair(1)
    ext = hb_extend(pair, strat)
    cert = stinespring_intertwiner(ext, ext)
    assert cert.verdict == "equivalent"
    assert spectral_norm(cert.intertwiner - np.eye(ext.dilation_dim)) <= 1e-8


def test_stinespring_intertwiner_rotated_run():
    pair, strat = finite_pair(2)
    ext1 = hb_extend(pair, strat)
    ext2 = rotated_step(hb_extend(pair, strat), np.random.default_rng(99))
    cert = stinespring_intertwiner(ext1, ext2)
    assert cert.verdict == "equivalent"
    assert cert.max_residual <= 1e-7


def test_stinespring_intertwiner_adapted_vs_gns():
    pair, strat = finite_pair(3)
    ext1 = hb_extend(pair, strat)
    e = CPMap.identity(pair.system.algebra)
    ext2 = hb_extend(pair, GnsStrategy(e))
    cert = stinespring_intertwiner(ext1, ext2)
    assert cert.verdict == "equivalent"
    assert cert.max_residual <= 1e-7


def test_stinespring_inequivalent_with_witness():
    tower, pair = tower_pair()
    ext1 = hb_extend(pair, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, "trace"))))
    ext2 = hb_extend(pair, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, [1, 0]))))
    cert = stinespring_intertwiner(ext1, ext2)
    assert cert.verdict == "inequivalent"
    assert cert.witness is not None
    assert cert.witness.mismatch >= 10 * 1e-8
    # recompute the witness value from the defining data only
    tau1 = TowerTransfer(tower, state_density(tower, "trace"))
    tau2 = TowerTransfer(tower, state_density(tower, [1, 0]))
    basis = pair.system.basis(2)
    i = cert.witness
    # locate the two basis elements named by the witness
    import re
    bi, bj = (int(x) for x in re.findall(r"basis\[(\d+)\]", i.element))
    y = basis[bi].adjoint() * basis[bj]
    v1 = pair.rep(tau1(y))[i.left_vector, i.right_vector]
    v2 = pair.rep(tau2(y))[i.left_vector, i.right_vector]
    assert abs((v1 - v2) - (i.value_a - i.value_b)) <= 1e-12
    assert abs(v1 - v2) >= 10 * 1e-8


def test_chain_intertwiner_identical_and_seeded():
    pair, strat = finite_pair(4)
    c1 = coisometric_extend(pair, 2, strat)
    c2 = coisometric_extend(pair, 2, strat)
    cert = chain_intertwiner(c1, c2)
    assert cert.verdict == "equivalent"
    s1 = coisometric_extend(pair, 2, strat, basis_seed=7)
    s2 = coisometric_extend(pair, 2, strat, basis_seed=8)
    cert2 = chain_intertwiner(s1, s2)
    assert cert2.verdict == "equivalent"
    assert cert2.residuals["unitarity_left"] <= 1e-7
    assert cert2.residuals["fixes_H"] <= 1e-8


def test_chain_intertwiner_different_transfers():
    tower, pair = tower_pair()
    c1 = coisometric_extend(pair, 1, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, "trace"))))
    c2 = coisometric_extend(pair, 1, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, [1, 0]))))
    cert = chain_intertwiner(c1, c2)
    assert cert.verdict == "inequivalent"
    assert cert.witness.level == 0
    assert cert.witness.mismatch >= 1e-7


def test_chain_intertwiner_level_mismatch():
    pair, strat = finite_pair(5)
    c1 = coisometric_extend(pair, 1, strat)
    c2 = coisometric_extend(pair, 2, strat)
    with pytest.raises(LevelMismatch):
        chain_intertwiner(c1, c2)


def test_dilation_intertwiner_identity():
    pair, _ = finite_pair(6)
    rec = schaffer_dilate(pair, 2)
    cert = dilation_intertwiner(rec, rec)
    assert cert.verdict == "equivalent"
    assert spectral_norm(cert.intertwiner - np.eye(rec.total_dim)) <= 1e-8


def test_dilation_intertwiner_schaffer_vs_matricial():
    pair, strat = finite_pair(7)
    chain = coisometric_extend(pair, 2, strat)
    rec1 = schaffer_dilate(chain.as_pair(), 2)
    rec2 = explicit_matricial_unitary(chain, 2)
    cert = dilation_intertwiner(rec1, rec2)
    assert cert.verdict == "equivalent"
    assert cert.max_residual <= 1e-6
    # and swapping the inputs transposes the intertwiner, a block operator
    # on the two records' layouts
    cert_t = dilation_intertwiner(rec2, rec1)
    assert cert_t.verdict == "equivalent"
    assert spectral_norm(cert_t.intertwiner - cert.intertwiner.adjoint()) <= 1e-6


def test_dilation_intertwiner_rejects_non_minimal():
    pair, _ = finite_pair(8)
    rec = schaffer_dilate(pair, 2)
    # an inert extra summand breaks minimality
    pad = np.zeros((rec.total_dim + 1, rec.total_dim + 1), dtype=complex)
    pad[:rec.total_dim, :rec.total_dim] = rec.w
    embed = np.zeros((rec.total_dim + 1, pair.space_dim), dtype=complex)
    embed[:rec.total_dim, :] = rec.source_embed

    class PaddedEta:
        dim = rec.total_dim + 1
        max_depth = None

        def images(self, coords, depth):
            return block_diag([rec.eta.images(coords, depth),
                               np.zeros((len(coords), 1, 1), dtype=complex)])

    bigger = DilationRecord(rec.kind, rec.block_names + ["inert"],
                            rec.block_dims + [1], rec.block_index + [99],
                            PaddedEta(), pad, rec.source_pair, embed, rec.copies)
    with pytest.raises(SpanDeficient):
        dilation_intertwiner(rec, bigger)


def test_dilation_intertwiner_external_minimal_dilation():
    # an externally supplied minimal dilation: any unitary reshuffling of the
    # ambient space still carries the same source data
    pair, _ = finite_pair(9)
    rec = schaffer_dilate(pair, 2)
    rng = np.random.default_rng(123)
    u0 = haar_unitary(rec.total_dim, rng)

    class RotatedEta:
        dim = rec.total_dim
        max_depth = None

        def images(self, coords, depth):
            return u0 @ rec.eta.images(coords, depth) @ u0.conj().T

    other = DilationRecord(rec.kind, rec.block_names, rec.block_dims,
                           rec.block_index, RotatedEta(),
                           u0 @ rec.w @ u0.conj().T, rec.source_pair,
                           u0 @ rec.source_embed, rec.copies)
    cert = dilation_intertwiner(rec, other)
    assert cert.verdict == "equivalent"
    assert spectral_norm(cert.intertwiner - u0) <= 1e-7


def test_verdict_symmetry_for_inequivalent_chains():
    tower, pair = tower_pair()
    c1 = coisometric_extend(pair, 1, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, "trace"))))
    c2 = coisometric_extend(pair, 1, AdaptedStrategy(
        TowerTransfer(tower, state_density(tower, [1, 0]))))
    cert12 = chain_intertwiner(c1, c2)
    cert21 = chain_intertwiner(c2, c1)
    assert cert12.verdict == cert21.verdict == "inequivalent"
    assert abs(cert12.witness.mismatch - cert21.witness.mismatch) <= 1e-12


def test_gns_route_equivalence_on_tower():
    tower, pair = tower_pair()
    tau = TowerTransfer(tower, state_density(tower, "trace"))
    ext1 = hb_extend(pair, AdaptedStrategy(tau))
    ext2 = hb_extend(pair, GnsStrategy(
        TowerExpectation(tower, state_density(tower, "trace"))))
    cert = stinespring_intertwiner(ext1, ext2)
    assert cert.verdict == "equivalent"
    assert cert.max_residual <= 1e-7


def gram_witness_oracle(system, depth, units_a, units_b, h, level):
    """The witness read off the two full Gram forms: the first entry, row
    major, whose gap is within 4 eps of the largest."""
    view = system.algebra_view(depth)
    ga = stinespring_gram(view, units_a, h)
    gb = stinespring_gram(view, units_b, h)
    diff = np.abs(ga - gb)
    near = diff >= diff.max() * (1.0 - 4.0 * np.finfo(float).eps)
    i, j = np.unravel_index(int(np.argmax(near)), diff.shape)
    bi, p = divmod(int(i), h)
    bj, q = divmod(int(j), h)
    element = f"adjoint(basis[{bi}]) * basis[{bj}]"
    if depth is not None:
        element += f" at working depth {depth}"
    return float(diff.max()), GramWitness(level, element, p, q, complex(ga[i, j]),
                                          complex(gb[i, j]))


def test_witness_matches_gram_oracle_on_tower_compare():
    a = demo_fixture("tower")
    b = demo_fixture("tower")
    b["strategy"] = {"kind": "adapted", "phi": {"vector": [[0.6, 0], [0, 0.8]]}}
    sa, sb = build_scenario(a), build_scenario(b)
    report = run(sa, "compare", other=sb)
    c1 = coisometric_extend(sa.pair, sa.levels, sa.strategy, sa.tol, sa.seed)
    c2 = coisometric_extend(sb.pair, sb.levels, sb.strategy, sb.tol, sb.seed)
    ext1, ext2 = c1.levels[0].ext, c2.levels[0].ext
    basis = sa.system.basis(ext1.working_depth)
    _, expected = gram_witness_oracle(
        sa.system, ext1.working_depth, [ext1.phi(b) for b in basis],
        [ext2.phi(b) for b in basis], ext1.space_dim, 0)
    assert report["verdicts"]["chains"]["witness"] == expected.as_dict()
    # the extension-step certificate names the same entry
    assert stinespring_intertwiner(ext1, ext2).witness == expected


@pytest.mark.parametrize("tie", [False, True], ids=["random", "tied"])
def test_witness_matches_gram_oracle_multi_block(tie):
    rng = np.random.default_rng(5)
    algebra = FiniteDimCStarAlgebra((2, 3))
    system = FiniteDimSystem(algebra, StarHom.identity(algebra))
    h = 2
    shape = (algebra.dim, h, h)
    if tie:
        # integer data: every block-1 entry differs by exactly 1
        units_a = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
        units_b = units_a.copy()
        units_b[4:] += 1.0
    else:
        units_a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        units_b = units_a + 1e-3 * rng.standard_normal(shape)
        units_b[4:] += 1e-2 * rng.standard_normal((algebra.dim - 4, h, h))

    mismatch, witness = _gram_mismatch_witness(algebra, None, units_a, units_b, h, 3,
                                               DEFAULT_TOL)
    expected_mismatch, expected = gram_witness_oracle(system, None, units_a, units_b, h, 3)
    assert mismatch == expected_mismatch
    assert witness == expected


def test_witness_tie_is_not_ordered_by_round_off():
    # an exact symmetric tie: both diagonal blocks of C^2 (+) C^2 miss by 0.5;
    # raising the later entry by one ulp must not move the witness
    algebra = FiniteDimCStarAlgebra((1, 1))
    units_a = np.array([[[1.0]], [[1.0]]], dtype=complex)
    units_b = np.array([[[0.5]], [[0.5]]], dtype=complex)
    _, tied = _gram_mismatch_witness(algebra, None, units_a, units_b, 1, 0, DEFAULT_TOL)
    nudged = units_a.copy()
    nudged[1, 0, 0] = np.nextafter(1.0, 2.0)
    mismatch, witness = _gram_mismatch_witness(algebra, None, nudged, units_b, 1, 0,
                                               DEFAULT_TOL)
    assert mismatch > tied.mismatch
    assert tied.element == witness.element == "adjoint(basis[0]) * basis[0]"
    assert (witness.left_vector, witness.right_vector) == (0, 0)


def test_max_residual_is_a_bound_when_any_residual_is_one():
    """An exact residual above a bound one still gives an UpperBound: the
    max over exact values and bounds only bounds the exact max."""
    cert = EquivalenceCertificate("equivalent", 1e-7,
                                  {"exact": 3e-15, "bounded": UpperBound(1e-15)})
    worst = cert.max_residual
    assert isinstance(worst, UpperBound) and worst == 3e-15
    assert clause("c", "x = y", worst, cert.threshold).as_dict()["residual_kind"] == "bound"
    exact = EquivalenceCertificate("equivalent", 1e-7, {"a": 3e-15, "b": 1e-15})
    assert type(exact.max_residual) is float
    assert type(EquivalenceCertificate("equivalent", 1e-7).max_residual) is float
