"""Kraus-form extension steps against the dense routes they replace.

Spans, restrictions and step intertwiners are computed in the multiplicity
spaces of a KrausRep (see its docstring).  The dense routes kept here
rebuild them from evaluated images: the spanning set
[rho(b_1) X, ..., rho(b_N) X] and its orthonormal_span, the RestrictedRep
B* rho(x) B of every chain level, x2 pinv(x1), and the GNS step's direct sum
of per-summand KrausReps.  Every step stays in the Kraus coordinates of its
own dilation; the chain whose step spaces are rotated by Haar draws as well
(:func:`rotated_route_chain`) is certified equivalent to it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covdilate.covariant as covariant_mod
from covdilate.algebra import FiniteDimCStarAlgebra, StarHom, cyclic_summands
from covdilate.covariant import (CovariantPair, DirectSumRep, FiniteDimSystem,
                                 RestrictedRep, TwoStepBlock, basis_images, defect_roots,
                                 extend_representation, frame_rank, haar_unitary,
                                 invariance_residual, resolve_transfer, span_frame,
                                 transfer_images, two_step)
from covdilate.cpmaps import (KrausDilation, KrausRep, kraus_dilation, kraus_span,
                              unit_image_chois)
from covdilate.dilation import explicit_matricial_unitary, power_orbit, schaffer_dilate
from covdilate.equivalence import (chain_intertwiner, dilation_intertwiner,
                                   stinespring_intertwiner)
from covdilate.errors import InvarianceViolation
from covdilate.extension import _assemble, coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, orthonormal_complement, orthonormal_span,
                                spectral_norm)
from covdilate.scenario import build_scenario

from conftest import rotated_step
from test_dilation_kernel import gns_strategy
from test_equivalence import finite_pair
from test_stacked_images import PROPER_DEFECT


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
    (:func:`conftest.rotated_step`) before two_step draws the defect
    rotation, on the same generator."""
    system = pair.system
    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels = []
    rep, t = pair.rep, pair.contraction
    for _ in range(n_levels):
        ext = extend_representation(system, rep, strategy, pair.depth, tol)
        if rng is not None:
            ext = rotated_step(ext, rng)
        step = two_step(CovariantPair(system, rep, t, pair.depth), ext, tol, rng)
        levels.append(step)
        rep, t = step.pi_hat, np.zeros((step.dim,) * 2, dtype=complex)
    return _assemble(pair, (strategy,) * n_levels, levels, basis_seed)


def direct_sum_gns_rep(system, rep, strategy, check_depth, tol=DEFAULT_TOL):
    """The GNS step's representation as the direct sum of its per-summand
    KrausReps, in summand-major coordinates."""
    working = system.stinespring_depth(check_depth)
    view = system.algebra_view(working)
    tau = resolve_transfer(system, strategy, tol)
    summands = cyclic_summands(basis_images(system, rep, check_depth), rep.dim, tol)
    phi_units = transfer_images(system, rep, tau, working)
    parts = []
    for xi, _ in summands:
        omega_units = (phi_units @ xi) @ xi.conj()
        dil = kraus_dilation(view, unit_image_chois(view, omega_units, 1), tol)
        parts.append(KrausRep(system, working, dil))
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
            basis, dil, comp = kraus_span(rho, x)
            assert basis.shape[1] == rank == level.dim, name
            assert comp.shape == (rho.dim, rho.dim - rank), name
            assert spectral_norm(_projector(comp) - _projector(
                orthonormal_complement(dense))) <= 1e-12, name
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


def test_the_basis_seed_rotates_only_the_defect_bases(corpus):
    # every extension step stays unrotated; the generator's draws are the
    # defect rotations, one per level, in level order
    seed = 41
    checked = 0
    for case in corpus:
        for strategy in (case.strategy, gns_strategy(case)):
            chain = coisometric_extend(case.pair, case.levels, strategy, DEFAULT_TOL, seed)
            rng = np.random.default_rng(seed)
            for lv in chain.levels:
                assert lv.ext.rho.rotation is None, case.name
                assert np.array_equal(lv.pi_hat.rotation, haar_unitary(lv.dim, rng)), case.name
                checked += 1
    assert checked > 2 * len(corpus)


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
    # both records are in Schaffer form: one SVD per component of the first
    # pivot gives its rank and its pseudo-inverse, one per component of the
    # second its rank; no SVD has a side of the power orbit
    pair, strat = finite_pair(7)
    chain = coisometric_extend(pair, 2, strat)
    rec1 = schaffer_dilate(chain.as_pair(), 2)
    rec2 = explicit_matricial_unitary(chain, 2)
    real_svd = np.linalg.svd
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting)
        cert = dilation_intertwiner(rec1, rec2)
    assert cert.verdict == "equivalent"
    pivots = [b.shape for rec in (rec1, rec2) for b in rec.echelon.pivot.component_blocks()]
    assert pivots and shapes == pivots
    x1, x2 = (np.hstack(power_orbit(rec.w, rec.source_embed, rec.copies))
              for rec in (rec1, rec2))
    assert all(side < min(x1.shape) for shape in shapes for side in shape)
    want = x2 @ np.linalg.pinv(x1, rcond=DEFAULT_TOL.rank_eps)
    assert spectral_norm(cert.intertwiner - want) <= 1e-10


# ---------------------------------------------------------------------------
# the merged GNS representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [None, 29])
def test_merged_gns_rep_matches_the_direct_sum(corpus, seed):
    """The merged GNS step is the direct sum in block-major order; a basis
    seed leaves it unrotated, since the seed only rotates defect bases."""
    merged = 0
    for case in corpus:
        pair = case.pair
        system = pair.system
        strategy = gns_strategy(case)
        ext = coisometric_extend(pair, 1, strategy, DEFAULT_TOL, seed).levels[0].ext
        old = direct_sum_gns_rep(system, pair.rep, strategy, pair.depth)
        assert isinstance(ext.rho, KrausRep) and ext.rho.rotation is None
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
# the singular-value identity
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1,
                       max_size=3).filter(lambda bs: any(r for _, r in bs)),
       h=st.integers(1, 3), rank=st.integers(0, 3), rotated=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(blocks=[(2, 2), (1, 3)], h=2, rank=0, rotated=True, seed=0)
def test_spanning_set_singular_values_are_the_frames_repeated(blocks, h, rank, rotated,
                                                             seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(n for n, _ in blocks)
    mults = tuple(r for _, r in blocks)
    alg = FiniteDimCStarAlgebra(sizes)
    system = FiniteDimSystem(alg, StarHom.identity(alg))
    dim = sum(n * r for n, r in blocks)
    # X of rank at most ``rank``; rank 0 is the zero W
    left = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    x = left @ (rng.standard_normal((rank, h)) + 1j * rng.standard_normal((rank, h)))
    rep = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, h), dtype=complex)),
                   haar_unitary(dim, rng) if rotated else None)

    dense = basis_images(system, rep, None, x)
    want = np.linalg.svd(dense, compute_uv=False)
    got = np.concatenate([np.repeat(np.linalg.svd(y, compute_uv=False), n)
                          for n, y in zip(sizes, rep.frames(x))])
    got = np.sort(got)[::-1]
    width = max(want.size, got.size)
    want, got = (np.pad(s, (0, width - s.size)) for s in (want, got))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, want[0]))

    dense_basis, dense_rank = orthonormal_span(dense)
    basis, dil, comp = kraus_span(rep, x)
    assert basis.shape == (dim, dense_rank)
    # the complement read off the frames is the dense one, orthonormal
    assert comp.shape == (dim, dim - dense_rank)
    assert spectral_norm(comp.conj().T @ comp - np.eye(dim - dense_rank)) <= 1e-12
    assert spectral_norm(_projector(comp)
                         - _projector(orthonormal_complement(dense_basis))) <= 1e-10
    assert frame_rank(span_frame(system, rep, None, x)) == dense_rank
    assert sum(n * r for n, r in zip(sizes, dil.multiplicities)) == dense_rank
    assert spectral_norm(_projector(basis) - _projector(dense_basis)) <= 1e-10
    if rank == 0:
        assert dense_rank == 0
