import numpy as np
import pytest

import covdilate.covariant as covariant_mod
import covdilate.extension as extension_mod
from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.cli import run
from covdilate.covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                                 extend_representation, haar_unitary, two_step)
from covdilate.cpmaps import CPMap
from covdilate.errors import DecompositionMismatch, DepthExceeded, StrategyInvalid
from covdilate.extension import (ExtensionChain, coisometric_extend,
                                 defect_decomposition, verify_coisometric_extension)
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, Tolerance, hermitian_root,
                                orthonormal_span, residual, spectral_norm)
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import ShiftTower, TowerTransfer, shift_down_pair, state_density


SCALARS = FiniteDimCStarAlgebra((1,))


def scalar_pair(t=0.6):
    pi = Representation.from_multiplicities(SCALARS, [1])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    return CovariantPair(system, pi, np.array([[t]], dtype=complex))


def scalar_strategy():
    return AdaptedStrategy(CPMap.identity(SCALARS))


def unitary_pair(seed=0):
    rng = np.random.default_rng(seed)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    return pair, AdaptedStrategy(CPMap.from_hom(alpha.inverse()))


def test_unitary_contraction_gives_trivial_chain():
    pair, strat = unitary_pair()
    chain = coisometric_extend(pair, 2, strat)
    assert chain.block_dims == [2, 0, 0]
    v = chain.v.dense()
    assert spectral_norm(v[:2, :2] - pair.contraction) <= 1e-12
    # VV* equals the identity because the truncated block is empty
    assert spectral_norm(v @ v.conj().T - np.eye(2)) <= 1e-10
    assert verify_coisometric_extension(chain).passed


def test_scalar_chain_row_projection():
    chain = coisometric_extend(scalar_pair(0.6), 3, scalar_strategy())
    assert chain.block_dims == [1, 1, 1, 1]
    v = chain.v.dense()
    vvs = (v @ v.conj().T).real
    assert np.allclose(np.diag(vvs), [1, 1, 1, 0], atol=1e-12)
    assert np.allclose(vvs, np.diag(np.diag(vvs)), atol=1e-12)
    rep = verify_coisometric_extension(chain)
    assert rep.passed


def test_rejects_zero_levels():
    with pytest.raises(StrategyInvalid):
        coisometric_extend(scalar_pair(), 0, scalar_strategy())


def test_tower_chain_passes_at_tight_tolerance():
    tower = ShiftTower(2, 5)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [1, 0])
    strat = AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace")))
    chain = coisometric_extend(pair, 2, strat)
    rep = verify_coisometric_extension(chain)
    assert rep.passed
    assert rep.max_residual() <= 1e-8


def test_tower_depth_budget():
    tower = ShiftTower(2, 3)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [1, 0])
    strat = AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace")))
    with pytest.raises(DepthExceeded):
        coisometric_extend(pair, 3, strat)


def test_perturbed_last_row_fails_coisometry():
    chain = coisometric_extend(scalar_pair(0.6), 2, scalar_strategy())
    # an entry in the truncated last row: a block off the pattern of V
    v = chain.v
    last = len(v.rows) - 1
    extra = np.zeros((v.rows[last], v.cols[0]))
    extra[-1, 0] = 0.5
    v2 = BlockOperator(v.rows, v.cols, {**v.blocks, (last, 0): extra})
    broken = ExtensionChain(chain.pair, chain.strategies, chain.levels, chain.rho,
                            v2, chain.block_names, chain.block_dims, None)
    rep = verify_coisometric_extension(broken)
    failed = {c.name for c in rep.clauses if not c.passed}
    assert "chain/coisometry" in failed


def first_levels(chain, n_levels):
    """V of the chain's first ``n_levels`` levels: its leading square over
    H + defect_0 + ... + defect_(n-1), where truncation zeroes the last row."""
    m = sum(chain.block_dims[:n_levels + 1])
    return chain.v.dense()[:m, :m]


def test_monotone_consistency():
    pair = scalar_pair(0.77)
    strat = scalar_strategy()
    big = coisometric_extend(pair, 4, strat)
    for n in (1, 2, 3):
        small = coisometric_extend(pair, n, strat)
        assert big.block_dims[:n + 1] == small.block_dims
        assert spectral_norm(first_levels(big, n) - small.v) <= 1e-10


def test_monotone_consistency_matrix_case():
    rng = np.random.default_rng(5)
    algebra = FiniteDimCStarAlgebra((2,))
    alpha = StarHom.inner_automorphism(algebra.element([haar_unitary(2, rng)]))
    pi = Representation.from_multiplicities(algebra, [2], haar_unitary(4, rng))
    system = FiniteDimSystem(algebra, alpha)
    from conftest import random_covariant_contraction
    t = random_covariant_contraction(system, pi, rng, 0.85)
    pair = CovariantPair(system, pi, t)
    strat = AdaptedStrategy(CPMap.from_hom(alpha.inverse()))
    big = coisometric_extend(pair, 3, strat)
    small = coisometric_extend(pair, 2, strat)
    assert big.block_dims[:3] == small.block_dims
    assert spectral_norm(first_levels(big, 2) - small.v) <= 1e-10
    rep = verify_coisometric_extension(big)
    assert rep.passed and rep.max_residual() <= 1e-8


def test_chain_covariance_up_to_four_levels():
    pair = scalar_pair(0.42)
    chain = coisometric_extend(pair, 4, scalar_strategy())
    rep = verify_coisometric_extension(chain)
    cov = next(c for c in rep.clauses if c.name == "chain/covariance")
    assert cov.residual <= 1e-8


def test_defect_decomposition_unitary_contraction_is_empty():
    pair, strat = unitary_pair(3)
    chain = coisometric_extend(pair, 1, strat)
    dd = defect_decomposition(chain)
    assert dd.dv_dim == 0
    assert chain.levels[0].dim == 0


def test_defect_decomposition_scalar_rank_two_ways():
    chain = coisometric_extend(scalar_pair(0.6), 1, scalar_strategy())
    dd = defect_decomposition(chain)
    # oracle: rank of I - V*V directly
    eye = np.eye(chain.total_dim)
    v = chain.v.dense()
    defect = eye - v.conj().T @ v
    rank = int(np.sum(np.linalg.eigvalsh(defect) > 1e-10))
    assert dd.dv_dim == rank == 1
    assert dd.report.passed


def test_defect_decomposition_row_gram_identity(built_chains, corpus):
    for case in corpus[:8]:
        chain = built_chains[case.name]
        dd = defect_decomposition(chain)
        gram = next(c for c in dd.report.clauses if c.name == "defect/row-gram")
        assert gram.residual <= 1e-8
        diag = next(c for c in dd.report.clauses if c.name == "defect/diagonal-form")
        assert diag.residual <= 1e-8


def test_defect_decomposition_tower_restriction():
    tower = ShiftTower(2, 4)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [0, 1])
    strat = AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace")))
    chain = coisometric_extend(pair, 2, strat)
    dd = defect_decomposition(chain)
    inv = next(c for c in dd.report.clauses if c.name == "defect/invariant")
    assert inv.residual <= 1e-8
    assert dd.report.passed


def test_gns_chain_on_tower_matches_adapted():
    # a full chain built through the GNS route with E = shift o tau is
    # certified equivalent to the adapted chain for the same state
    from covdilate.covariant import GnsStrategy
    from covdilate.equivalence import chain_intertwiner
    from covdilate.tower import TowerExpectation
    tower = ShiftTower(2, 5)
    pair = shift_down_pair(tower, 2, 1, 0.8, [1, 0], [0, 1])
    density = state_density(tower, "trace")
    adapted = coisometric_extend(pair, 2, AdaptedStrategy(TowerTransfer(tower, density)))
    gns_chain = coisometric_extend(pair, 2, GnsStrategy(TowerExpectation(tower, density)))
    assert verify_coisometric_extension(gns_chain).passed
    cert = chain_intertwiner(adapted, gns_chain)
    assert cert.verdict == "equivalent"
    assert cert.max_residual <= 1e-7


def test_mixed_strategies_allowed_behind_flag():
    from covdilate.covariant import GnsStrategy
    pair = scalar_pair(0.5)
    strategies = [scalar_strategy(), GnsStrategy(CPMap.identity(SCALARS))]
    chain = coisometric_extend(pair, 2, scalar_strategy(),
                               level_strategies=strategies)
    assert verify_coisometric_extension(chain).passed


# ---------------------------------------------------------------------------
# one builder for every chain level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("basis_seed", [None, 5])
def test_each_level_is_the_span_of_its_step_set(corpus, built_chains, basis_seed):
    # level k >= 1 must be span rho_k(A) W_k, recomputed here one basis
    # element at a time, with D_k* = W_k* B_k
    checked = 0
    for case in corpus:
        chain = built_chains[case.name] if basis_seed is None else \
            coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL, basis_seed)
        system = case.pair.system
        for level in chain.levels[1:]:
            ext = level.ext
            w = ext.isometry
            cols = [ext.rho(b) @ w for b in system.basis(ext.rho.max_depth)]
            want, rank = orthonormal_span(np.hstack(cols))
            basis = level.defect_basis
            assert level.dim == rank, case.name
            assert spectral_norm(basis @ basis.conj().T - want @ want.conj().T) <= 1e-12
            assert np.array_equal(level.d_star, w.conj().T @ basis)
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("basis_seed", [None, 5])
def test_one_level_chain_is_the_two_step_block(corpus, basis_seed):
    for case in corpus:
        pair = case.pair
        rng = None if basis_seed is None else np.random.default_rng(basis_seed)
        ext = extend_representation(pair.system, pair.rep, case.strategy, pair.depth,
                                    DEFAULT_TOL)
        step = two_step(pair, ext, DEFAULT_TOL, rng)
        chain = coisometric_extend(pair, 1, case.strategy, DEFAULT_TOL, basis_seed)
        # V = M = [[T, D*], [0, 0]]
        h = pair.space_dim
        m = chain.v.dense()
        assert m.shape == (h + step.dim,) * 2, case.name
        assert np.array_equal(m[:h, :h], pair.contraction), case.name
        assert np.array_equal(m[:h, h:], step.d_star), case.name
        assert not m[h:].any(), case.name
        # M M* M = M, the one block identity no chain clause states
        tol = DEFAULT_TOL.residual_tol
        assert residual(m @ m.conj().T @ m, m, tol) <= tol, case.name


def _refuse(*args, **kwargs):
    raise AssertionError("a step certificate was built")


def test_reports_never_build_step_certificates(monkeypatch):
    scenarios = {name: build_scenario(demo_fixture(name))
                 for name in ("scalar", "automorphism", "tower")}
    commands = ("extend", "unitary", "matricial", "compare")

    def reports():
        return {(name, command): run(sc, command, sc)
                for name, sc in scenarios.items() for command in commands}

    want = reports()
    monkeypatch.setattr(covariant_mod, "_certify_step", _refuse)
    assert reports() == want

    # read later, the certificates are those of a direct build
    sc = scenarios["tower"]
    chain = coisometric_extend(sc.pair, sc.levels, sc.strategy, sc.tol, sc.seed)
    monkeypatch.undo()
    for level in chain.levels:
        ext = level.ext
        assert ext.report == covariant_mod._certify_step(
            ext.system, ext.base_rep, ext.rho, ext.isometry, ext.check_depth, sc.tol)
        assert ext.report.passed


def _defect_roots_by_svd(pair, tol=DEFAULT_TOL):
    """defect_roots without the zero-contraction shortcut: both defects
    from the SVD of T, whatever T is."""
    ((u, sigma, vh),) = covariant_mod.contraction_svds([pair.contraction], tol)
    s = covariant_mod.defect_values(sigma, vh.shape[0], tol)
    return hermitian_root(vh.conj().T, s), hermitian_root(u, s)


def test_defect_decomposition_reuses_the_level0_roots_at_their_tolerance(corpus, monkeypatch):
    """The decomposition reads the roots two_step kept only when it is asked
    at the tolerance they were taken at; at another it takes them afresh."""
    case = next(c for c in corpus if c.pair.contraction.any())
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    calls, real = [], extension_mod.defect_roots

    def roots(pair, tol=DEFAULT_TOL):
        calls.append(tol)
        return real(pair, tol)

    monkeypatch.setattr(extension_mod, "defect_roots", roots)
    kept = defect_decomposition(chain)
    assert calls == []
    other = Tolerance(psd_floor=2.0 * DEFAULT_TOL.psd_floor)
    fresh = defect_decomposition(chain, other)
    assert calls == [other]
    assert kept.report.passed and fresh.report.passed


def test_levels_above_the_first_take_no_square_root(corpus, built_chains, monkeypatch):
    """Level k >= 1 extends (pi_hat_(k-1), 0), whose defects are exactly I
    without an SVD, and the chain equals the one built through the SVD of T
    at every level."""
    levels, roots = [], []
    real_step, real_svds = extension_mod.two_step, covariant_mod.contraction_svds

    def step(pair, ext, tol, rng):
        levels.append(pair)
        return real_step(pair, ext, tol, rng)

    def svds(mats, tol=DEFAULT_TOL):
        roots.append(len(levels) - 1)
        return real_svds(mats, tol)

    monkeypatch.setattr(extension_mod, "two_step", step)
    monkeypatch.setattr(covariant_mod, "contraction_svds", svds)
    deep = 0
    for case in corpus:
        levels.clear()
        roots.clear()
        chain = coisometric_extend(case.pair, case.levels, case.strategy)
        assert len(levels) == case.levels
        assert roots == ([0] if case.pair.contraction.any() else [])
        deep += case.levels > 1

        levels.clear()
        roots.clear()
        with monkeypatch.context() as m:
            m.setattr(covariant_mod, "defect_roots", _defect_roots_by_svd)
            direct = coisometric_extend(case.pair, case.levels, case.strategy)
        assert roots == list(range(case.levels))
        ref = built_chains[case.name]
        for got in (chain, direct):
            assert got.block_dims == ref.block_dims
            assert np.array_equal(got.v, ref.v)
            for lv, ref_lv in zip(got.levels, ref.levels):
                assert np.array_equal(lv.defect_basis, ref_lv.defect_basis)
                assert np.array_equal(lv.d_star, ref_lv.d_star)
                assert np.array_equal(lv.ext.isometry, ref_lv.ext.isometry)
    assert deep > 0


def test_defect_split_gate_fires_on_a_short_complement(built_chains, monkeypatch):
    """A complement one column short of its level leaves f + q below the
    level's dimension, which the split gate must reject.  f and q are the
    left singular vectors of one full SVD per level, so the fault drops the
    last of them, a column of q."""
    chain = next(c for c in built_chains.values()
                 if any(q.shape[1] for q in defect_decomposition(c).q_bases))
    real = extension_mod.ranked_svds

    def short(blocks, tol=DEFAULT_TOL, **kwargs):
        out = real(blocks, tol, **kwargs)
        return [(u[:, :-1], s, vh) for u, s, vh in out] if kwargs.get("full_matrices") else out

    monkeypatch.setattr(extension_mod, "ranked_svds", short)
    with pytest.raises(DecompositionMismatch, match="does not split"):
        defect_decomposition(chain)
