"""Kraus-form extension steps against the dense routes they replace.

Spans, restrictions and step intertwiners are computed in the multiplicity
spaces of a KrausRep (see its docstring).  The dense routes kept here
rebuild them from evaluated images: the spanning set
[rho(b_1) X, ..., rho(b_N) X] and its orthonormal_span, the RestrictedRep
B* rho(x) B of every chain level, x2 pinv(x1), and the GNS step's direct sum
of per-summand KrausReps, each read off the Choi blocks of its state
(``dense_oracle.gns_route_step``), where the package cuts each summand from
the composed step.  Every step stays in the Kraus coordinates of its own
dilation; the chain whose step spaces are rotated by Haar draws
(:func:`rotated_route_chain`) is certified equivalent to it.  A basis seed
moves each level by a Haar unitary of its ``pi_hat``'s commutant, drawn
block by block.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covdilate.covariant as covariant_mod
from covdilate.algebra import FiniteDimCStarAlgebra, StarHom
from covdilate.covariant import (CovariantPair, DirectSumRep, FiniteDimSystem,
                                 RestrictedRep, TwoStepBlock, basis_images, defect_roots,
                                 extend_representation, frame_rank, haar_unitary,
                                 invariance_residual, resolve_transfer, span_frame,
                                 two_step)
from covdilate.cpmaps import KrausDilation, KrausRep, KrausTransfer, kraus_span
from covdilate.dilation import explicit_matricial_unitary, power_orbit, schaffer_dilate
from covdilate.equivalence import (chain_intertwiner, dilation_intertwiner,
                                   stinespring_intertwiner)
from covdilate.errors import InvarianceViolation
from covdilate.extension import _assemble, coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, block_diag, eye_kron,
                                orthonormal_span, spectral_norm)
from covdilate.scenario import build_scenario, load_scenario

import dense_oracle
from conftest import rotated_step
from test_dilation_kernel import gns_strategy
from test_equivalence import finite_pair
from test_intertwiner_bound import TOWER_WIDE
from test_stacked_images import PROPER_DEFECT
from test_tower_kraus import gns_tower_scenarios

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# the dense routes
# ---------------------------------------------------------------------------

def dense_two_step(pair, ext, tol=DEFAULT_TOL, rng=None):
    """A chain level the way it was built from evaluated images: the
    orthonormal_span of the spanning set, a Haar rotation, the invariance
    gate, and the restriction B* rho(x) B as its ``pi_hat``."""
    _, delta_star = defect_roots(pair, tol)
    w = ext.isometry
    depth = ext.rho.max_depth
    basis, rank = orthonormal_span(basis_images(pair.system, ext.rho, depth,
                                                w @ delta_star), tol)
    if rng is not None and rank:
        basis = basis @ haar_unitary(rank, rng)
    inv = invariance_residual(pair.system, depth, ext.rho, basis, tol.residual_tol)
    if inv > tol.residual_tol:
        raise InvarianceViolation(f"defect space drifts under rho by {inv:.3e}")
    return TwoStepBlock(ext, basis, delta_star @ w.conj().T @ basis,
                        RestrictedRep(ext.rho, basis), inv)


def dense_route_chain(pair, n_levels, strategy, tol=DEFAULT_TOL, basis_seed=None):
    """coisometric_extend with every level built by :func:`dense_two_step`."""
    system = pair.system
    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels = []
    rep, t = pair.rep, pair.contraction
    for _ in range(n_levels):
        ext = extend_representation(system, rep, strategy, pair.depth, tol)
        step = dense_two_step(CovariantPair(system, rep, t, pair.depth), ext, tol, rng)
        levels.append(step)
        rep, t = step.pi_hat, np.zeros((step.dim,) * 2, dtype=complex)
    return _assemble(pair, (strategy,) * n_levels, levels, basis_seed)


def rotated_route_chain(pair, n_levels, strategy, tol=DEFAULT_TOL, basis_seed=None):
    """coisometric_extend with every step space rotated: with a seed, each
    step is rotated by a Haar draw of its dilation dimension
    (:func:`conftest.rotated_step`), a representation that is not a KrausRep,
    and :func:`dense_two_step` builds its level from the evaluated images,
    drawing the defect rotation on the same generator."""
    system = pair.system
    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels = []
    rep, t = pair.rep, pair.contraction
    for _ in range(n_levels):
        ext = extend_representation(system, rep, strategy, pair.depth, tol)
        level_pair = CovariantPair(system, rep, t, pair.depth)
        if rng is None:
            step = two_step(level_pair, ext, tol)
        else:
            step = dense_two_step(level_pair, rotated_step(ext, rng), tol, rng)
        levels.append(step)
        rep, t = step.pi_hat, np.zeros((step.dim,) * 2, dtype=complex)
    return _assemble(pair, (strategy,) * n_levels, levels, basis_seed)


def direct_sum_gns_rep(system, rep, strategy, check_depth, tol=DEFAULT_TOL):
    """The GNS step's representation as the direct sum of the per-summand
    KrausReps of the Choi route, in summand-major coordinates."""
    parts, _ = dense_oracle.gns_route_parts(system, rep, strategy, check_depth, tol)
    return DirectSumRep(tuple(parts))


def block_major_order(parts, sizes):
    """The summand-major index of each block-major coordinate of the merged
    representation: block b, row i < n_b, then each summand's copies."""
    starts = np.cumsum([0] + [p.dim for p in parts])
    order = []
    for b, n in enumerate(sizes):
        for i in range(n):
            for p, start in zip(parts, starts):
                _, r, s = p.layout[b]
                order.extend(start + s.start + i * r + np.arange(r))
    return np.array(order, dtype=int)


def _level_seeds(case_pair, chain):
    """(level, X) for every chain level: X = W Delta* at level 0, W above."""
    _, delta_star = defect_roots(case_pair)
    for k, level in enumerate(chain.levels):
        w = level.ext.isometry
        yield level, (w @ delta_star if k == 0 else w)


def _projector(basis):
    return basis @ basis.conj().T


@pytest.fixture(scope="module")
def corpus_chains(corpus, built_chains):
    chains = [(case.pair, built_chains[case.name], case.name) for case in corpus]
    for case in corpus[::5]:
        chains.append((case.pair, coisometric_extend(case.pair, case.levels, case.strategy,
                                                     DEFAULT_TOL, 17), case.name + "-seeded"))
    scenario = build_scenario(PROPER_DEFECT)
    chains.append((scenario.pair, coisometric_extend(scenario.pair, scenario.levels,
                                                     scenario.strategy, scenario.tol,
                                                     scenario.seed), "proper-defect"))
    return chains


# ---------------------------------------------------------------------------
# spans and restrictions
# ---------------------------------------------------------------------------

def test_kraus_span_is_the_dense_span_on_every_level(corpus_chains):
    proper = 0
    for pair, chain, name in corpus_chains:
        for level, x in _level_seeds(pair, chain):
            rho = level.ext.rho
            dense, rank = orthonormal_span(basis_images(pair.system, rho, rho.max_depth, x))
            basis, dil = kraus_span(rho, x)
            assert basis.shape[1] == rank == level.dim, name
            assert sum(n * r for n, r in zip(rho.block_sizes, dil.multiplicities)) == rank
            assert spectral_norm(_projector(basis) - _projector(dense)) <= 1e-12, name
            assert spectral_norm(_projector(level.defect_basis) - _projector(dense)) <= 1e-12
            proper += 0 < rank < rho.dim
    assert proper > 0


def test_pi_hat_is_the_restriction_to_the_defect_basis(corpus_chains):
    for pair, chain, name in corpus_chains:
        system = pair.system
        for level in chain.levels:
            assert isinstance(level.pi_hat, KrausRep)
            depth = level.pi_hat.max_depth
            rows = np.eye(system.basis_size(depth))[:6]
            want = RestrictedRep(level.ext.rho, level.defect_basis).images(rows, depth)
            got = level.pi_hat.images(rows, depth)
            assert np.abs(got - want).max(initial=0.0) <= 1e-12, name


def test_dense_route_chain_is_equivalent_to_the_kraus_chain(corpus_chains):
    for pair, chain, name in corpus_chains:
        strategy = chain.strategies[0]
        dense = dense_route_chain(pair, chain.n_levels, strategy, DEFAULT_TOL,
                                  chain.basis_seed)
        assert dense.block_dims == chain.block_dims, name
        cert = chain_intertwiner(dense, chain)
        assert cert.verdict == "equivalent", (name, cert.residuals)


@pytest.mark.parametrize("basis_seed", [None, 17])
def test_rotated_step_route_chain_is_equivalent_to_the_kraus_chain(corpus, built_chains,
                                                                   basis_seed):
    for case in corpus:
        chain = built_chains[case.name] if basis_seed is None else coisometric_extend(
            case.pair, case.levels, case.strategy, DEFAULT_TOL, basis_seed)
        rotated = rotated_route_chain(case.pair, case.levels, case.strategy, DEFAULT_TOL,
                                      basis_seed)
        assert rotated.block_dims == chain.block_dims, case.name
        cert = chain_intertwiner(rotated, chain)
        assert cert.verdict == "equivalent", (case.name, cert.residuals)


# ---------------------------------------------------------------------------
# the basis seed: a unitary of each level's commutant
# ---------------------------------------------------------------------------

def _seed_pairs(corpus):
    """(name, unseeded chain, chain at seed 41) for the corpus, adapted and
    GNS, and for the proper-defect scenario."""
    for case in corpus:
        for strategy in (case.strategy, gns_strategy(case)):
            yield (f"{case.name}-{strategy.kind}",
                   coisometric_extend(case.pair, case.levels, strategy, DEFAULT_TOL),
                   coisometric_extend(case.pair, case.levels, strategy, DEFAULT_TOL, 41))
    proper = build_scenario(PROPER_DEFECT)
    yield ("proper-defect",
           coisometric_extend(proper.pair, proper.levels, proper.strategy, proper.tol),
           coisometric_extend(proper.pair, proper.levels, proper.strategy, proper.tol, 41))


def _commutant_unitary(layout, rng):
    """G = directsum_b I_{n_b} (x) U_b, one haar_unitary(r_b) per block."""
    return block_diag([eye_kron(n, haar_unitary(r, rng)) for n, r, _ in layout])


def test_the_basis_seed_draws_one_haar_unitary_per_block_of_each_level(corpus):
    # level by level, then block by block of pi_hat's layout: the seeded
    # level's basis is the unseeded one times G*; no extension step moves
    checked = 0
    for name, plain, seeded in _seed_pairs(corpus):
        rng = np.random.default_rng(41)
        for lv0, lv in zip(plain.levels, seeded.levels):
            g = _commutant_unitary(lv.pi_hat.layout, rng)
            assert np.array_equal(lv.ext.isometry, lv0.ext.isometry), name
            assert np.abs(lv.defect_basis - lv0.defect_basis @ g.conj().T).max(
                initial=0.0) <= 1e-14, name
            checked += 1
    assert checked > 2 * len(corpus)


def test_a_seeded_pi_hat_is_the_unseeded_pi_hat(corpus):
    """Same multiplicities and the same images over the basis; only the
    defect basis and d* move, by G* with G unitary and commuting with K."""
    moved = 0
    for name, plain, seeded in _seed_pairs(corpus):
        system = plain.pair.system
        for lv0, lv in zip(plain.levels, seeded.levels):
            k0, k = lv0.pi_hat, lv.pi_hat
            assert isinstance(k, KrausRep) and not hasattr(k, "rotation"), name
            assert k.dilation.multiplicities == k0.dilation.multiplicities, name
            rows = np.eye(system.basis_size(k.depth))
            images = k0.images(rows, k.depth)
            assert np.array_equal(k.images(rows, k.depth), images), name
            # G = B* B0, the seed's unitary read off the two bases
            g = lv.defect_basis.conj().T @ lv0.defect_basis
            assert spectral_norm(g @ g.conj().T - np.eye(lv.dim)) <= 1e-13, name
            assert np.abs(g @ images - images @ g).max(initial=0.0) <= 1e-13, name
            assert spectral_norm(lv.d_star - lv0.d_star @ g.conj().T) <= 1e-13, name
            if lv.dim and np.abs(lv.d_star).max() > 1e-8:
                assert not np.allclose(lv.defect_basis, lv0.defect_basis), name
                assert not np.allclose(lv.d_star, lv0.d_star), name
                moved += 1
    assert moved > len(corpus)


def test_the_seed_draws_no_unitary_above_a_block_multiplicity(monkeypatch):
    """On the seeded levels fixture the only Haar draws are the per-block
    factors U_b: no side above the largest r_b of a level's pi_hat, and no
    QR of a level's side."""
    scenario = load_scenario(str(FIXTURES / "tower-levels.json"))
    sides, qr_shapes = [], []
    real_haar, real_qr = covariant_mod.haar_unitary, np.linalg.qr

    def recording_haar(n, rng):
        sides.append(n)
        return real_haar(n, rng)

    def recording_qr(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(covariant_mod, "haar_unitary", recording_haar)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                               scenario.tol, scenario.seed)
    mults = [r for lv in chain.levels for r in lv.pi_hat.dilation.multiplicities]
    assert sides == mults
    assert max(max(shape) for shape in qr_shapes) <= max(mults)
    # each level's factors are smaller than the level: here r_b = dim / 8
    assert all(max(lv.pi_hat.dilation.multiplicities) < lv.dim for lv in chain.levels)


def test_reseeded_levels_chains_are_equivalent_by_a_nontrivial_unitary():
    first, second = (load_scenario(str(FIXTURES / name))
                     for name in ("tower-levels.json", "tower-levels-reseeded.json"))
    assert first.seed != second.seed
    chains = [coisometric_extend(s.pair, s.levels, s.strategy, s.tol, s.seed)
              for s in (first, second)]
    cert = chain_intertwiner(*chains)
    assert cert.verdict == "equivalent", cert.residuals
    assert cert.residuals["representation_intertwined"] == 0.0
    assert spectral_norm(cert.intertwiner - np.eye(chains[0].total_dim)) > 0.1


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def test_two_step_and_step_intertwiners_evaluate_no_spanning_set(corpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("basis_images called")

    cases = [next(c for c in corpus if c.backend == "finite-dim" and c.levels >= 2),
             next(c for c in corpus if c.backend == "tower" and c.levels >= 2)]
    for case in cases:
        pair = case.pair
        with monkeypatch.context() as m:
            m.setattr(covariant_mod, "basis_images", refuse)
            plain = coisometric_extend(pair, case.levels, case.strategy)
            seeded = coisometric_extend(pair, case.levels, case.strategy, DEFAULT_TOL, 3)
            assert chain_intertwiner(plain, seeded).verdict == "equivalent"
            ext1, ext2 = plain.levels[0].ext, seeded.levels[0].ext
            assert stinespring_intertwiner(ext1, ext2).verdict == "equivalent"
            assert ext1.report.passed and ext2.report.passed


def _dense_map(system, depth, ext1, ext2, tol=DEFAULT_TOL):
    x1 = basis_images(system, ext1.rho, depth, ext1.isometry)
    x2 = basis_images(system, ext2.rho, depth, ext2.isometry)
    return x2 @ np.linalg.pinv(x1, rcond=tol.rank_eps)


@pytest.mark.parametrize("kind", ["adapted", "gns"])
def test_kraus_space_intertwiner_is_x2_pinv_x1(corpus, kind):
    for case in corpus:
        pair = case.pair
        system = pair.system
        ext1 = extend_representation(system, pair.rep, case.strategy, pair.depth)
        strategy = case.strategy if kind == "adapted" else gns_strategy(case)
        ext2 = rotated_step(extend_representation(system, pair.rep, strategy, pair.depth),
                            np.random.default_rng(23))
        cert = stinespring_intertwiner(ext1, ext2)
        assert cert.verdict == "equivalent", case.name
        want = _dense_map(system, ext1.working_depth, ext1, ext2)
        assert spectral_norm(cert.intertwiner - want) <= 1e-10, case.name


def test_dilation_intertwiner_decomposes_each_power_orbit_once(monkeypatch):
    # both records are in Schaffer form: the first pivot's rank and
    # pseudo-inverse come from the factors schaffer_dilate holds, and the
    # second pivot, the defect row, is onto by the bounds the explicit
    # record holds, so no SVD runs; once a pivot block is changed in its
    # last bit those bounds are refused and one SVD per component of the
    # second pivot gives its rank, with no side of the power orbit
    sc = build_scenario(TOWER_WIDE)
    pair, strat = finite_pair(7)
    chains = [(coisometric_extend(pair, 2, strat), 2),
              (coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed), sc.copies)]
    real_svd = np.linalg.svd
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    for chain, copies in chains:
        rec1 = schaffer_dilate(chain.as_pair(), copies)
        rec2 = explicit_matricial_unitary(chain, copies)
        key = next(k for k in rec2.w.blocks if k[0] == rec2.echelon.parts[0][0])
        block = rec2.w.blocks[key].copy()
        block.real[0, 0] = np.nextafter(block.real[0, 0], np.inf)
        edited = replace(rec2, w=BlockOperator(rec2.w.rows, rec2.w.cols,
                                               {**rec2.w.blocks, key: block}))
        x1 = np.hstack(power_orbit(rec1.w, rec1.source_embed, rec1.copies))
        pivots = [b.shape for b in edited.echelon.pivot.component_blocks()]
        for rec, expected in ((rec2, []), (edited, pivots)):
            shapes.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", counting)
                cert = dilation_intertwiner(rec1, rec)
            assert cert.verdict == "equivalent"
            assert shapes == expected
            x2 = np.hstack(power_orbit(rec.w, rec.source_embed, rec.copies))
            assert all(side < min(x1.shape) for shape in shapes for side in shape)
            want = x2 @ np.linalg.pinv(x1, rcond=DEFAULT_TOL.rank_eps)
            assert spectral_norm(cert.intertwiner - want) <= 1e-10


# ---------------------------------------------------------------------------
# the merged GNS representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [None, 29])
def test_merged_gns_rep_matches_the_direct_sum(corpus, seed):
    """The merged GNS step is the direct sum in block-major order; a basis
    seed leaves it as it is, since the seed moves only defect bases."""
    merged = 0
    for case in corpus:
        pair = case.pair
        system = pair.system
        strategy = gns_strategy(case)
        ext = coisometric_extend(pair, 1, strategy, DEFAULT_TOL, seed).levels[0].ext
        old = direct_sum_gns_rep(system, pair.rep, strategy, pair.depth)
        assert isinstance(ext.rho, KrausRep)
        depth = ext.working_depth
        rows = np.eye(system.basis_size(depth))
        got = ext.rho.images(rows, depth)
        direct = extend_representation(system, pair.rep, strategy, pair.depth)
        assert np.array_equal(got, direct.rho.images(rows, depth)), case.name
        assert np.array_equal(ext.isometry, direct.isometry), case.name
        order = block_major_order(old.parts, ext.rho.block_sizes)
        want = np.asarray(old.images(rows, depth))[:, order][:, :, order]
        assert np.abs(got - want).max() <= 1e-13, case.name
        merged += len(old.parts) > 1 and not np.array_equal(order, np.arange(order.size))
    assert merged > 0


# ---------------------------------------------------------------------------
# the GNS step as a cyclic cut of the composed step
# ---------------------------------------------------------------------------

def _gns_cases(corpus):
    """(name, pair, GNS strategy, levels) on the corpus, on the finite pi
    given by images in a Haar-rotated basis, and on the tower-wide GNS
    scenarios, these with two levels."""
    for case in corpus:
        yield case.name, case.pair, gns_strategy(case), case.levels
    images = load_scenario(str(FIXTURES / "finite-images-pi-gns.json"))
    yield "images-pi-gns", images.pair, images.strategy, images.levels
    for i, data in enumerate(gns_tower_scenarios()):
        scenario = build_scenario(dict(data, levels=2))
        yield f"tower-wide-gns-{i}", scenario.pair, scenario.strategy, scenario.levels


def _step_dims(chain):
    return [(lv.ext.dilation_dim, lv.ext.rho.dilation.multiplicities) for lv in chain.levels]


@pytest.mark.parametrize("basis_seed", [None, 17])
def test_gns_cut_chains_are_the_per_summand_route_chains(corpus, basis_seed):
    """Every level's GNS step, cut from the composed step, against the Choi
    dilation of each omega_s with W's rows by least squares."""
    for name, pair, strategy, levels in _gns_cases(corpus):
        chain = coisometric_extend(pair, levels, strategy, DEFAULT_TOL, basis_seed)
        oracle = dense_oracle.choi_route_chain(pair, levels, strategy, DEFAULT_TOL, basis_seed,
                                               dense_oracle.gns_route_step)
        assert chain.block_dims == oracle.block_dims, name
        assert _step_dims(chain) == _step_dims(oracle), name
        cert = chain_intertwiner(oracle, chain)
        assert cert.verdict == "equivalent", (name, cert.residuals)
        for level in chain.levels:
            w = level.ext.isometry
            assert spectral_norm(w.conj().T @ w - np.eye(w.shape[1])) <= 1e-12, name


def test_a_finite_gns_chain_holds_one_kraus_transfer(corpus, monkeypatch):
    """Every level, level 0 through pi's own Kraus form, is composed from
    the one Kraus form that the strategy's held transfer alpha^-1 o E holds,
    one per (working depth, stage)."""
    case = next(c for c in corpus if c.backend == "finite-dim" and c.pair.contraction.any())
    strategy = gns_strategy(case)
    built = []
    real = FiniteDimSystem.transfer_kraus

    def counting(self, tau, depth, at, tol=DEFAULT_TOL):
        built.append((depth, at))
        return real(self, tau, depth, at, tol)

    monkeypatch.setattr(FiniteDimSystem, "transfer_kraus", counting)
    chain = coisometric_extend(case.pair, 4, strategy)
    assert chain.n_levels == 4 and all(lv.dim for lv in chain.levels)
    assert built == [(None, None)]
    tau = resolve_transfer(case.pair.system, strategy)
    assert all(lv.ext.transfer is tau for lv in chain.levels)
    assert [type(form) for form in vars(tau)["_certificates"].values()] == [KrausTransfer]


# ---------------------------------------------------------------------------
# the singular-value identity
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1,
                       max_size=3).filter(lambda bs: any(r for _, r in bs)),
       h=st.integers(1, 3), rank=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
@example(blocks=[(2, 2), (1, 3)], h=2, rank=0, seed=0)
def test_spanning_set_singular_values_are_the_frames_repeated(blocks, h, rank, seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(n for n, _ in blocks)
    mults = tuple(r for _, r in blocks)
    alg = FiniteDimCStarAlgebra(sizes)
    system = FiniteDimSystem(alg, StarHom.identity(alg))
    dim = sum(n * r for n, r in blocks)
    # X of rank at most ``rank``; rank 0 is the zero W
    left = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    x = left @ (rng.standard_normal((rank, h)) + 1j * rng.standard_normal((rank, h)))
    rep = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, h), dtype=complex)))

    dense = basis_images(system, rep, None, x)
    want = np.linalg.svd(dense, compute_uv=False)
    got = np.concatenate([np.repeat(np.linalg.svd(y, compute_uv=False), n)
                          for n, y in zip(sizes, rep.frames(x))])
    got = np.sort(got)[::-1]
    width = max(want.size, got.size)
    want, got = (np.pad(s, (0, width - s.size)) for s in (want, got))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, want[0]))

    dense_basis, dense_rank = orthonormal_span(dense)
    basis, dil = kraus_span(rep, x)
    assert basis.shape == (dim, dense_rank)
    assert frame_rank(span_frame(system, rep, None, x)) == dense_rank
    assert sum(n * r for n, r in zip(sizes, dil.multiplicities)) == dense_rank
    assert spectral_norm(_projector(basis) - _projector(dense_basis)) <= 1e-10
    if rank == 0:
        assert dense_rank == 0
