"""The batched basis sweep, the projector form of invariance, the closed-form
shift inverse and the strided Kraus representation, each against the
per-element or dense route it replaces (kept here as test-local references).
"""

import re

import numpy as np
import pytest

import covdilate.cli as cli_mod
import covdilate.covariant as covariant_mod
import covdilate.extension as extension_mod
import covdilate.numerics as numerics_mod
from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.cli import run
from covdilate.covariant import (FiniteDimSystem, GnsStrategy,
                                 extend_representation, haar_unitary,
                                 invariance_residual, resolve_transfer,
                                 transfer_images, two_step, usable_depth)
from covdilate.cpmaps import (CPMap, KrausDilation, KrausRep, kraus_span,
                              stinespring_minimal)
from covdilate.errors import (DimensionMismatch, InvarianceViolation, NotCP,
                              RangeNotInImage)
from covdilate.extension import coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, basis_sweep, block_diag, residual,
                                spectral_norm)
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import (ShiftTower, TowerSystem, alpha_hom, shift_alpha,
                             standard_rep)

from conftest import random_element
from test_cpmaps import transpose_map


def _loop_max(elements, fn):
    """Per-element reference: the hand-written loop the sweep replaced."""
    worst = 0.0
    for a in elements:
        worst = max(worst, fn(a))
    return worst


def _chain_images(system, chain, pair, d):
    """Chunk callback: the chain's images, their shifts and pi's images."""
    return lambda c: (chain.rho.images(c, d).dense(),
                      chain.rho.images(*system.alpha_coords(c, d)).dense(),
                      pair.rep.images(c, d))


def _projector_invariance(elements, rep, basis):
    proj_off = np.eye(basis.shape[0], dtype=complex) - basis @ basis.conj().T
    return _loop_max(elements, lambda a: spectral_norm(proj_off @ rep(a) @ basis))


# ---------------------------------------------------------------------------
# the sweep helper
# ---------------------------------------------------------------------------

def test_sweep_matches_per_element_loop_on_corpus(corpus, built_chains):
    checked = 0
    for case in corpus:
        chain = built_chains[case.name]
        system = case.pair.system
        d = usable_depth(system, [case.pair.rep, chain.rho], 1, case.pair.depth)
        basis = system.basis(d)
        v = chain.v.dense()
        h = case.pair.space_dim

        def cov(a):
            return residual(v @ chain.rho(system.alpha_apply(a)), chain.rho(a) @ v)

        def restr(a):
            target = np.zeros((chain.total_dim, h), dtype=complex)
            target[:h, :] = case.pair.rep(a)
            return residual(chain.rho(a)[:, :h], target)

        def norm(a):
            return spectral_norm(v @ chain.rho(a))

        def padded(pa):
            target = np.zeros((len(pa), chain.total_dim, h), dtype=complex)
            target[:, :h, :] = pa
            return target

        got = basis_sweep(system.basis_size(d), _chain_images(system, chain, case.pair, d),
                          lambda ra, raa, pa: (v @ raa, ra @ v),
                          lambda ra, raa, pa: (ra[..., :h], padded(pa)),
                          lambda ra, raa, pa: v @ ra)
        want = [_loop_max(basis, cov), _loop_max(basis, restr), _loop_max(basis, norm)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-13), (case.name, got, want)
        checked += 1
    assert checked == len(corpus)


def test_sweep_value_does_not_depend_on_the_chunk(monkeypatch, built_chains, corpus):
    case = next(c for c in corpus if c.backend == "tower")
    chain = built_chains[case.name]
    system = case.pair.system
    d = usable_depth(system, [chain.rho], 1, case.pair.depth)
    args = (system.basis_size(d), _chain_images(system, chain, case.pair, d),
            lambda ra, raa, pa: (chain.v @ raa, ra @ chain.v), lambda ra, raa, pa: ra - raa)
    big = basis_sweep(*args)
    monkeypatch.setattr(numerics_mod, "SWEEP_STACK_BYTES", 1)
    one = basis_sweep(*args)
    assert np.allclose(big, one, rtol=0.0, atol=1e-15)


def test_sweep_edge_cases():
    eye = np.eye(2)
    assert basis_sweep(np.zeros((0, 2, 2)), lambda c: (c,), lambda c: (c, c),
                       lambda c: c) == [0.0, 0.0]
    assert basis_sweep(0, lambda c: (c,), lambda c: (c, c)) == [0.0]
    assert basis_sweep(np.zeros((1, 3, 0)), lambda c: (c,), lambda c: c) == [0.0]
    with pytest.raises(DimensionMismatch):
        basis_sweep(eye[None], lambda c: (c,), lambda c: (c, np.eye(3)[None]))
    with pytest.raises(ValueError):
        basis_sweep(eye[None], lambda c: (c,), lambda c: (c * np.nan, c))
    # a residual clause is the scale-free distance of residual()
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    (val,) = basis_sweep(x[None], lambda c: (c,), lambda c: (c, eye[None]))
    assert val == residual(x, eye)


# ---------------------------------------------------------------------------
# invariance, ||rep(a) B - B (B* rep(a) B)||, against the dense I - B B*
# ---------------------------------------------------------------------------

def test_complement_form_matches_projector_form(corpus, built_chains):
    for case in corpus:
        chain = built_chains[case.name]
        system = case.pair.system
        level = chain.levels[0]
        rho = level.ext.rho
        span_depth = rho.max_depth if system.is_tower else None
        elements = system.basis(span_depth)
        basis = level.defect_basis
        want = _projector_invariance(elements, rho, basis)
        got = invariance_residual(system, span_depth, rho, basis)
        assert abs(got - want) <= 1e-13, case.name
        if basis.shape[1] in (0, rho.dim):
            # an empty or whole subspace is invariant outright: exactly 0
            assert got == 0.0


def _multiplicity_two_rep(rng):
    """pi(a) = U (a x I_2) U* on C^2 x C^2, whose subspace U (C^2 x e_0) is
    invariant and proper."""
    alg = FiniteDimCStarAlgebra((2,))
    u = haar_unitary(4, rng)
    pi = Representation.from_multiplicities(alg, (2,), u)
    return alg, pi, u[:, [0, 2]]


def _perturbed(basis, rng, eps=1e-4):
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    q, _ = np.linalg.qr(basis + eps * noise)
    return q


def test_complement_form_on_proper_subspaces():
    rng = np.random.default_rng(7)
    alg, pi, inv_basis = _multiplicity_two_rep(rng)
    system = FiniteDimSystem(alg, StarHom.identity(alg))
    elements = alg.basis()
    assert _projector_invariance(elements, pi, inv_basis) <= 1e-14
    assert invariance_residual(system, None, pi, inv_basis) <= 1e-14
    for _ in range(3):
        bad = _perturbed(inv_basis, rng)
        want = _projector_invariance(elements, pi, bad)
        got = invariance_residual(system, None, pi, bad)
        assert want > DEFAULT_TOL.residual_tol
        assert abs(got - want) <= 1e-13


def _dropping_span(real_span):
    """kraus_span that loses the last column of the defect basis it returns,
    so the span it reports is a proper, generically non-invariant subspace.
    (Dropping a vector of range Y_b instead would leave a rho-invariant
    subspace, which no invariance gate can reject.)"""

    def span(rep, x, tol=DEFAULT_TOL):
        basis, dil = real_span(rep, x, tol)
        return basis[:, :-1], dil

    return span


def test_two_step_rejects_a_drifting_defect_space(corpus, monkeypatch):
    case = next(c for c in corpus if c.backend == "tower")
    ext = extend_representation(case.pair.system, case.pair.rep, case.strategy,
                                case.pair.depth)
    monkeypatch.setattr(covariant_mod, "kraus_span", _dropping_span(kraus_span))
    with pytest.raises(InvarianceViolation, match="defect space drifts"):
        two_step(case.pair, ext)


def test_chain_rejects_a_drifting_level_defect_space(corpus, monkeypatch):
    # level k >= 1 is the two-step block of (pi_hat_(k-1), 0), so a level-1
    # step that reports a proper subspace of its span must trip its gate
    case = next(c for c in corpus if c.backend == "tower" and c.levels >= 2)
    real_two_step = covariant_mod.two_step
    steps = []

    def dropping_at_level_one(pair, ext, tol, rng):
        steps.append(pair)
        if len(steps) == 2:
            monkeypatch.setattr(covariant_mod, "kraus_span", _dropping_span(kraus_span))
        return real_two_step(pair, ext, tol, rng)

    monkeypatch.setattr(extension_mod, "two_step", dropping_at_level_one)
    with pytest.raises(InvarianceViolation, match="level 1 defect space drifts"):
        coisometric_extend(case.pair, case.levels, case.strategy)
    assert len(steps) == 2


def test_each_level_spans_its_step_set_once(corpus, monkeypatch):
    case = next(c for c in corpus if c.backend == "tower" and c.levels >= 2)
    calls = []

    def recording(rep, x, tol=DEFAULT_TOL):
        calls.append(rep)
        return kraus_span(rep, x, tol)

    for mod in (covariant_mod, extension_mod):
        monkeypatch.setattr(mod, "kraus_span", recording, raising=False)
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    assert chain.n_levels >= 2
    for level in chain.levels:
        ext = level.ext
        assert sum(rep is ext.rho for rep in calls) == 1


# ---------------------------------------------------------------------------
# the tower backend
# ---------------------------------------------------------------------------

def _lstsq_solve_alpha(tower, y, tol=DEFAULT_TOL):
    """The least-squares inverse of the shift the closed form replaced."""
    m = alpha_hom(tower, y.depth - 1).matrix
    rhs = y.coords
    sol, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
    off = np.linalg.norm(m @ sol - rhs)
    n = tower.stage_dim(y.depth - 1)
    return sol.reshape(n, n), off > tol.residual_tol * (1.0 + np.linalg.norm(rhs))


@pytest.mark.parametrize("k,d_max", [(2, 5), (3, 3)])
def test_closed_form_solve_alpha_matches_lstsq(k, d_max):
    rng = np.random.default_rng(100 + k)
    tower = ShiftTower(k, d_max)
    system = TowerSystem(tower)
    for depth in range(1, d_max + 1):
        n = tower.stage_dim(depth - 1)
        x = tower.element(depth - 1, rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))
        y = shift_alpha(x)
        ref, outside = _lstsq_solve_alpha(tower, y)
        assert not outside
        got = system.solve_alpha(y)
        assert got.depth == depth - 1
        assert np.allclose(got.mat, ref, rtol=0.0, atol=1e-12)
        assert np.allclose(got.mat, x.mat, rtol=0.0, atol=1e-12)

        big = tower.stage_dim(depth)
        off_range = tower.element(depth, y.mat + 1e-3 * (
            rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))))
        _, outside = _lstsq_solve_alpha(tower, off_range)
        assert outside
        with pytest.raises(RangeNotInImage):
            system.solve_alpha(off_range)


def _lstsq_alpha_inverse(system, coords, tol=DEFAULT_TOL):
    """The per-element least-squares inverse the batched solve replaced:
    (solution, miss) for one coordinate row."""
    m = system.alpha.matrix
    sol, _, _, _ = np.linalg.lstsq(m, coords, rcond=None)
    off = np.linalg.norm(m @ sol - coords)
    return sol, off if off > tol.residual_tol * (1.0 + np.linalg.norm(coords)) else None


def test_batched_alpha_inverse_keeps_the_per_element_gate():
    # alpha(a + b) = a + a on C + C: its range is the diagonal
    alg = FiniteDimCStarAlgebra((1, 1))
    system = FiniteDimSystem(alg, StarHom(alg, alg, np.array([[1.0, 0.0], [1.0, 0.0]])))
    inside = np.array([[2.0, 2.0], [1j, 1j], [0.0, 0.0]])
    got, depth = system.solve_alpha_rows(inside)
    assert depth is None
    for row, sol in zip(inside, got):
        want, miss = _lstsq_alpha_inverse(system, row)
        assert miss is None
        assert np.allclose(sol, want, rtol=0.0, atol=1e-14)
    # the first row outside the range raises, with the per-element message
    rows = np.vstack([inside, [[1.0, 1.0 + 1e-3], [3.0, 0.0]]])
    _, miss = _lstsq_alpha_inverse(system, rows[3])
    with pytest.raises(RangeNotInImage,
                       match=re.escape(f"element misses the image of alpha by {miss:.3e}")):
        system.solve_alpha_rows(rows)


def test_batched_gns_transfer_matches_per_element_values(corpus):
    case = next(c for c in corpus if c.backend == "finite-dim" and c.pair.rep.dim >= 3)
    system, rep = case.pair.system, case.pair.rep
    tau = resolve_transfer(system, GnsStrategy(CPMap.identity(system.algebra)))
    want = []
    for b in system.basis(None):
        sol, miss = _lstsq_alpha_inverse(system, b.coords)
        assert miss is None
        want.append(rep(system.element_from_coords(sol, None)))
    got = transfer_images(system, rep, tau, None)
    assert np.allclose(got, np.stack(want), rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# the strided Kraus representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blocks,mults", [((2,), (3,)), ((2, 1, 3), (2, 0, 1)),
                                          ((1, 1), (1, 4))])
def test_kraus_rep_matches_kron_block_diag(blocks, mults):
    rng = np.random.default_rng(11)
    alg = FiniteDimCStarAlgebra(blocks)
    dim = sum(n * r for n, r in zip(blocks, mults))
    system = FiniteDimSystem(alg, StarHom.identity(alg))
    rep = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, 1), dtype=complex)))
    for _ in range(3):
        x = random_element(alg, rng)
        want = block_diag([np.kron(b, np.eye(r)) for b, r in zip(x.blocks, mults) if r])
        assert np.array_equal(rep(x), want)


def test_tower_rep_and_shift_keep_kron_entries():
    rng = np.random.default_rng(12)
    tower = ShiftTower(3, 3)
    x = tower.element(1, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.array_equal(shift_alpha(x).mat, np.kron(np.eye(3), x.mat))
    rep = standard_rep(tower, 2, 2)
    assert np.array_equal(rep(x), np.kron(np.kron(x.mat, np.eye(3)), np.eye(2)))


# ---------------------------------------------------------------------------
# shared Choi spectra and the tower check depth
# ---------------------------------------------------------------------------

def test_stinespring_minimal_keeps_not_cp_outcome():
    with pytest.raises(NotCP, match="min Choi eigenvalue -1.000e\\+00"):
        stinespring_minimal(transpose_map())


def test_check_verifies_tower_representation_at_pair_depth(monkeypatch):
    data = dict(demo_fixture("tower"), rep_depth=4, d_max=6, levels=1)
    scenario = build_scenario(data)
    assert scenario.pair.depth == 3
    seen = []
    real_view = cli_mod.stage_view

    def recording_view(system, rep, depth):
        seen.append(depth)
        return real_view(system, rep, depth)

    monkeypatch.setattr(cli_mod, "stage_view", recording_view)
    report = run(scenario, "check")
    assert seen == [3]
    assert report["passed"]
    names = [c["name"] for c in report["clauses"]]
    assert "representation/multiplicative" in names
