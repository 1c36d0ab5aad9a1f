"""Whole-chain sweeps through the levels' frame kernels against block images.

Each chain level's representation pi_hat_k is a Kraus representation
K_k = directsum_b x_b (x) I_(r_b), seeded or not (a basis seed moves the
level's defect basis by a unitary of K_k's commutant, never K_k itself).
``verify_coisometric_extension`` and ``defect_decomposition`` apply every
K_k to the blocks of V and D_V through ``KrausRep.act`` without forming an
image.  Here the exact values are compared with the route through the
images of the chain's rho (``dense_oracle.chain_coordinate_values``, which
takes the complement of D_V), the extension step's gate and the level
containment note with dense complements, and the frame kernel with
``images``; a structural test holds the two sweeps to no image of a level
and no complement at all.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covdilate.extension as extension_mod
import covdilate.numerics as numerics_mod
from covdilate.algebra import FiniteDimCStarAlgebra, StarHom
from covdilate.covariant import FiniteDimSystem, invariance_residual, usable_depth
from covdilate.cpmaps import KrausDilation, KrausRep
from covdilate.extension import (ExtensionChain, coisometric_extend, defect_decomposition,
                                 verify_coisometric_extension)
from covdilate.numerics import DEFAULT_TOL, BlockOperator
from covdilate.scenario import build_scenario

import dense_oracle
from conftest import make_tower_case
from test_dilation_kernel import gns_strategy
from test_stacked_images import PROPER_DEFECT

AGREE = 1e-13
SWEPT = ("chain/representation-restricts", "chain/covariance", "defect/invariant",
         "defect/diagonal-form")


def _exact(monkeypatch, fn):
    """fn() with every clause value exact (the threshold ignored)."""
    real = numerics_mod._clause_max
    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", lambda term, threshold=None: real(term))
        return fn()


def _deep_case():
    return make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)


def _chains(corpus):
    """(name, chain): the corpus unseeded and seeded, the k = 2, rep_depth = 3,
    levels = 2 tower both ways, GNS chains and the proper-defect scenario."""
    for case in corpus:
        for seed in (None, 1000 + len(case.name)):
            yield (f"{case.name}-seed{seed}",
                   coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, seed))
    deep = _deep_case()
    for seed in (None, 3):
        yield f"tower-rep-depth-3-seed{seed}", coisometric_extend(
            deep.pair, deep.levels, deep.strategy, DEFAULT_TOL, seed)
    for case in corpus[::6]:
        levels = case.levels if case.pair.system.is_tower else 2
        yield f"{case.name}-gns", coisometric_extend(
            case.pair, levels, gns_strategy(case), DEFAULT_TOL, 17)
    proper = build_scenario(PROPER_DEFECT)
    yield "proper-defect", coisometric_extend(proper.pair, proper.levels, proper.strategy,
                                              proper.tol, proper.seed)


def test_sweeps_match_the_chain_coordinate_route(corpus, monkeypatch):
    seeded = gns = 0
    for name, chain in _chains(corpus):
        shipped = verify_coisometric_extension(chain)
        dd = defect_decomposition(chain)
        shipped.extend(dd.report)
        exact = _exact(monkeypatch, lambda: verify_coisometric_extension(chain))
        exact.extend(_exact(monkeypatch, lambda: defect_decomposition(chain)).report)
        got = {c.name: c for c in exact.clauses}
        flags = {c.name: c for c in shipped.clauses}
        oracle = dense_oracle.chain_coordinate_values(chain, dd)
        for clause in SWEPT:
            value, scale = oracle[clause]
            assert abs(got[clause].residual - value) <= AGREE * (1.0 + scale), \
                (name, clause, got[clause].residual, value)
            assert flags[clause].passed == (value <= flags[clause].threshold), (name, clause)
        seeded += chain.basis_seed is not None
        gns += chain.strategies[0].kind == "gns"
    assert seeded > 50 and gns > 5


def test_step_gate_and_containment_note_match_dense_complements(corpus, monkeypatch):
    proper = 0
    for name, chain in _chains(corpus):
        system = chain.pair.system
        notes = verify_coisometric_extension(chain).notes
        for k, level in enumerate(chain.levels):
            rho, w = level.ext.rho, level.ext.isometry
            # the gate as two_step values it, on the (seeded) defect basis
            basis = level.defect_basis
            got = _exact(monkeypatch, lambda: invariance_residual(
                system, rho.max_depth, rho, basis, DEFAULT_TOL.residual_tol))
            value, scale = dense_oracle.complement_invariance(system, rho.max_depth, rho,
                                                              basis)
            assert abs(got - value) <= AGREE * (1.0 + scale), (name, k, got, value)
            assert (level.invariance <= DEFAULT_TOL.residual_tol) \
                == (value <= DEFAULT_TOL.residual_tol), (name, k)
            proper += 0 < basis.shape[1] < rho.dim
            if k == 0:
                continue
            # the containment note: ||K(a) W - W (W* K(a) W)|| against a
            # dense complement of W
            check_d = usable_depth(system, [rho], 0, chain.pair.depth)
            got = invariance_residual(system, check_d, rho, w)
            value, scale = dense_oracle.complement_invariance(system, check_d, rho, w)
            assert abs(got - value) <= AGREE * (1.0 + scale), (name, k, got, value)
            assert any(f"level {k}: " in n and f"by {got:.3e} " in n for n in notes), name
    assert proper > 0


def _isometry(rng, dim, h):
    z = rng.standard_normal((dim, h)) + 1j * rng.standard_normal((dim, h))
    return np.linalg.qr(z)[0] if h else z


def test_containment_note_on_a_multi_block_finite_krausrep():
    """Random isometries, invariant under no unit, on Kraus representations
    of M_2 + M_1 + M_3, one with an empty block."""
    algebra = FiniteDimCStarAlgebra((2, 1, 3))
    system = FiniteDimSystem(algebra, StarHom.identity(algebra))
    rng = np.random.default_rng(11)
    moved = 0
    for mults in ((3, 2, 1), (2, 0, 2)):
        dim = sum(n * r for n, r in zip(algebra.block_sizes, mults))
        rep = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, 1))))
        for h in (0, 1, 3, dim - 1, dim):
            w = _isometry(rng, dim, h)
            got = extension_mod._containment(system, None, rep, w)
            value, scale = dense_oracle.complement_invariance(system, None, rep, w)
            assert abs(got - value) <= AGREE * (1.0 + scale), (mults, h, got, value)
            moved += value > 0.1
    assert moved >= 6


def test_containment_note_below_the_rep_depth():
    """Every level rep of the seeded rep_depth = 3 tower at each depth up to
    its own, on its W and on a random isometry: a unit at depth d acts as
    e_ij (x) I_m with m = dim / k^d."""
    case = _deep_case()
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    system = chain.pair.system
    rng = np.random.default_rng(13)
    checked = 0
    for level in chain.levels:
        rho = level.ext.rho
        for w in (level.ext.isometry, _isometry(rng, rho.dim, 5)):
            for depth in range(rho.depth + 1):
                got = extension_mod._containment(system, depth, rho, w)
                value, scale = dense_oracle.complement_invariance(system, depth, rho, w)
                assert abs(got - value) <= AGREE * (1.0 + scale), (depth, got, value)
                checked += depth < rho.depth
    assert checked >= 8


def _broken(chain, key, block):
    v = chain.v
    return ExtensionChain(chain.pair, chain.strategies, chain.levels, chain.rho,
                          BlockOperator(v.rows, v.cols, {**v.blocks, key: block}),
                          chain.block_names, chain.block_dims, chain.basis_seed)


@pytest.mark.parametrize("key", [(1, 2), (2, 1)], ids=["on-pattern", "off-pattern"])
def test_broken_v_fails_covariance_with_the_oracle_value(key):
    """A perturbed D_1* (row defect-0, column defect-1) and a block from
    defect-0 into defect-1 of a seeded chain: both levels act on each, one
    from either side."""
    case = _deep_case()
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    rng = np.random.default_rng(12)
    shape = (chain.v.rows[key[0]], chain.v.cols[key[1]])
    noise = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    broken = _broken(chain, key, chain.v.blocks.get(key, 0.0) + noise)
    got = {c.name: c for c in verify_coisometric_extension(broken).clauses}
    value, scale = dense_oracle.chain_coordinate_values(broken, defect_decomposition(chain))[
        "chain/covariance"]
    clause = got["chain/covariance"]
    assert not clause.passed and value > clause.threshold
    assert abs(clause.residual - value) <= AGREE * (1.0 + scale), (clause.residual, value)


# ---------------------------------------------------------------------------
# the frame kernel
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@example(layout=[(2, 0), (1, 2)], cols=2, rows=1, seed=0)
@example(layout=[(3, 0)], cols=1, rows=2, seed=1)
@given(layout=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1,
                       max_size=3),
       cols=st.integers(0, 3), rows=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_frame_kernel_is_the_image_product(layout, cols, rows, seed):
    rng = np.random.default_rng(seed)
    algebra = FiniteDimCStarAlgebra(tuple(n for n, _ in layout))
    system = FiniteDimSystem(algebra, StarHom.identity(algebra))
    mults = tuple(r for _, r in layout)
    dim = sum(n * r for n, r in layout)
    rep = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, 1))))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    coords = gaussian(rows, algebra.dim)
    images = rep.images(coords, None)
    x, y = gaussian(dim, cols), gaussian(cols, dim)
    assert rep.act(coords, None, x).shape == (rows, dim, cols)
    assert np.abs(rep.act(coords, None, x) - images @ x).max(initial=0.0) <= 1e-13
    assert np.abs(rep.act(coords, None, y, right=True) - y @ images).max(initial=0.0) <= 1e-13


def test_frame_kernel_on_the_tower_levels():
    """Every level rep of the seeded rep_depth = 3 tower, the step's and the
    restriction's, at its own depth and one below (the coordinate rows
    embedded into its stage)."""
    case = _deep_case()
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    system = chain.pair.system
    rng = np.random.default_rng(5)
    checked = 0
    for level in chain.levels:
        for rep in (level.ext.rho, level.pi_hat):
            for depth in (rep.depth, rep.depth - 1):
                coords = np.eye(system.basis_size(depth), dtype=complex)[::7]
                images = rep.images(coords, depth)
                x = rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))
                assert np.abs(rep.act(coords, depth, x) - images @ x).max() <= 1e-13
                y = x.T.conj()
                assert np.abs(rep.act(coords, depth, y, right=True)
                              - y @ images).max() <= 1e-13
                checked += 1
    assert checked == 8


def test_chain_sweeps_form_no_level_image_and_no_level_complement(monkeypatch):
    """On the seeded rep_depth = 3 tower the two sweeps evaluate no
    KrausRep image and take no complement at all: the package has no
    complement routine, and the only full SVDs are the splits of each
    defect-k into f_k and q_k, one per level, of side dim defect-k.  A
    KrausRep has no other route to an image: it carries no rotation."""
    case = _deep_case()
    chain = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, 3)
    images, full = [], []

    def recording_images(self, coords, depth):
        images.append(self.dim)
        return real_images(self, coords, depth)

    def recording_svds(blocks, *args, **kwargs):
        if kwargs.get("full_matrices"):
            full.extend(b.shape[0] for b in blocks)
        return real_svds(blocks, *args, **kwargs)

    real_images, real_svds = KrausRep.images, numerics_mod.ranked_svds
    monkeypatch.setattr(KrausRep, "images", recording_images)
    assert not hasattr(KrausRep, "rotation")
    assert not any(hasattr(lv.pi_hat, "rotation") for lv in chain.levels)
    assert not any(hasattr(module, "orthonormal_complement")
                   for module in (numerics_mod, extension_mod))
    for module in (numerics_mod, extension_mod):
        monkeypatch.setattr(module, "ranked_svds", recording_svds)

    assert verify_coisometric_extension(chain).passed
    assert full == []
    assert defect_decomposition(chain).report.passed
    assert images == []
    assert full == [level.dim for level in chain.levels]
