import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import covdilate.numerics as numerics_mod
from covdilate.covariant import basis_images, defect_roots
from covdilate.equivalence import chain_intertwiner
from covdilate.errors import DimensionMismatch, NotHermitian, NotPositive
from covdilate.extension import coisometric_extend
from covdilate.numerics import (DEFAULT_TOL, Tolerance, _spectral_norms, orthonormal_span,
                                psd_sqrt, rank_cutoff, ranked_svds, residual, spectral_norm,
                                svd_rank)
from covdilate.report import clause

from dense_oracle import orthonormal_complement


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_eps=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_eps=1e-6, residual_tol=1e-8)


def test_psd_sqrt_identity():
    s = psd_sqrt(np.eye(2))
    assert np.allclose(s, np.eye(2))


def test_psd_sqrt_scalar():
    s = psd_sqrt(np.array([[0.64]]))
    assert abs(s[0, 0] - 0.8) < 1e-14


def test_psd_sqrt_against_schur_oracle():
    # independent oracle: scipy's Schur-based matrix square root
    m = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    expected = scipy.linalg.sqrtm(m)
    s = psd_sqrt(m)
    assert spectral_norm(s - expected) < 1e-12
    assert spectral_norm(s @ s - m) < 1e-12
    # eigenvalues of m are 1 and 3, so the root has eigenvalues 1 and sqrt(3)
    assert np.allclose(np.linalg.eigvalsh(s), [1.0, np.sqrt(3.0)])


def test_psd_sqrt_rejects():
    with pytest.raises(NotHermitian):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPositive):
        psd_sqrt(np.array([[-1.0]]))


def test_psd_sqrt_clamps_floor_noise():
    m = np.array([[5e-11]])
    assert psd_sqrt(m)[0, 0] == 0.0
    m2 = np.array([[-5e-11]])
    assert psd_sqrt(m2)[0, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_psd_sqrt_property(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    s = psd_sqrt(m)
    assert spectral_norm(s - s.conj().T) < 1e-12
    assert np.linalg.eigvalsh(s)[0] > -1e-12
    assert spectral_norm(s @ s - m) <= 1e-9 * (1.0 + spectral_norm(m))


def test_psd_sqrt_property_dim_64():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = a @ a.conj().T
    s = psd_sqrt(m)
    assert spectral_norm(s @ s - m) <= 1e-9 * (1.0 + spectral_norm(m))


def test_psd_sqrt_clamps_and_raises():
    assert np.array_equal(psd_sqrt(np.diag([5e-11, -5e-11, 0.25])), np.diag([0.0, 0.0, 0.5]))
    for bad, err in (([[0.0, 1.0], [0.0, 0.0]], NotHermitian), ([[-1.0]], NotPositive),
                     (np.zeros((2, 3)), DimensionMismatch)):
        with pytest.raises(err):
            psd_sqrt(np.array(bad))
    assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)


def test_ranked_svds_keep_what_rank_cutoff_keeps():
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((3, 5)) * 1e-12, rng.standard_normal((4, 2)),
              np.zeros((2, 2))]
    cut = rank_cutoff([np.linalg.svd(b, compute_uv=False) for b in blocks])
    kept = ranked_svds(blocks, compute_uv=False)
    assert [len(s) for _, s, _ in kept] == [0, 2, 0]
    assert all((s > cut).all() for _, s, _ in kept)
    assert rank_cutoff([], top=2.0) == DEFAULT_TOL.rank_eps * 2.0


def test_residual_examples():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert residual(m, m) == 0.0
    assert residual(np.eye(3), np.zeros((3, 3))) == 0.5
    with pytest.raises(DimensionMismatch):
        residual(np.eye(2), np.eye(3))


def test_residual_against_svd_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    num = np.linalg.svd(a - b, compute_uv=False)[0]
    den = 1.0 + max(np.linalg.svd(a, compute_uv=False)[0],
                    np.linalg.svd(b, compute_uv=False)[0])
    assert abs(residual(a, b) - num / den) < 1e-14


def test_orthonormal_span_duplicates_and_zero():
    e1 = np.array([1.0, 0.0, 0.0])
    basis, rank = orthonormal_span([e1, e1])
    assert rank == 1
    assert np.allclose(np.abs(basis[:, 0]), e1)
    _, rank0 = orthonormal_span([np.zeros(3)])
    assert rank0 == 0


def test_orthonormal_span_rank_oracle():
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    basis, rank = orthonormal_span(cols)
    svd_rank = int(np.sum(np.linalg.svd(cols, compute_uv=False) > 1e-10))
    assert rank == svd_rank == 3
    assert spectral_norm(basis.conj().T @ basis - np.eye(rank)) <= 1e-10


def test_orthonormal_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        orthonormal_span([np.ones(2), np.ones(3)])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10**6))
def test_orthonormal_span_properties(dim, count, seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    basis, rank = orthonormal_span(cols)
    assert spectral_norm(basis.conj().T @ basis - np.eye(rank)) <= 1e-10
    # adding span-dependent vectors never changes the rank
    mixed = cols @ (rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3)))
    _, rank2 = orthonormal_span(np.hstack([cols, mixed]))
    assert rank2 == rank
    # the span is reproduced: every input column lies in the basis span
    assert spectral_norm(cols - basis @ (basis.conj().T @ cols)) <= 1e-9 * (
        1.0 + spectral_norm(cols))


def test_orthonormal_span_deterministic():
    rng = np.random.default_rng(11)
    cols = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    b1, _ = orthonormal_span(cols)
    b2, _ = orthonormal_span(cols.copy())
    assert np.array_equal(b1, b2)


def test_orthonormal_complement_of_full_span_is_empty():
    basis, _ = orthonormal_span(np.eye(3))
    comp = orthonormal_complement(basis)
    assert comp.shape == (3, 0)


def test_orthonormal_complement_splits():
    rng = np.random.default_rng(13)
    cols = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    basis, rank = orthonormal_span(cols)
    comp = orthonormal_complement(basis)
    assert rank + comp.shape[1] == 5
    assert spectral_norm(basis.conj().T @ comp) < 1e-12


# ---------------------------------------------------------------------------
# differential checks of the norm kernel and the QR-first span against the
# direct LAPACK routes they replace
# ---------------------------------------------------------------------------

SLICE_SCALES = (1.0, 1e-200, 1e150)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=10**6))
def test_spectral_norms_match_numpy_two_norm(count, rows, cols, rank, seed):
    """Square, tall, wide, zero-size, rank-deficient and all-zero slices, each
    scaled by 1, 1e-200 or 1e150."""
    rng = np.random.default_rng(seed)
    r = min(rank, rows, cols)  # r = 0 gives exactly-zero slices
    left = rng.standard_normal((count, rows, r)) + 1j * rng.standard_normal((count, rows, r))
    right = rng.standard_normal((count, r, cols)) + 1j * rng.standard_normal((count, r, cols))
    scales = rng.choice(SLICE_SCALES, size=count)
    stack = (left @ right) * scales[:, None, None]
    got = _spectral_norms(stack)
    assert got.shape == (count,)
    for x, value in zip(stack, got):
        want = np.linalg.norm(x, 2) if x.size else 0.0
        assert abs(value - want) <= 1e-13 * want, (x.shape, value, want)


@pytest.mark.parametrize("s", [1e-200, 1e150])
def test_spectral_norm_is_scale_safe(s):
    rng = np.random.default_rng(17)
    for shape in [(4, 4), (3, 7), (7, 3), (1, 5)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = s * np.linalg.norm(x, 2)
        assert abs(spectral_norm(s * x) - want) <= 1e-13 * want


def test_spectral_norm_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(np.array([[1.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            residual(np.array([[1.0, 0.0]]), np.array([[bad, 0.0]]))


def direct_svd_span(vectors, tol=DEFAULT_TOL):
    """orthonormal_span without the QR step: one SVD of the whole set."""
    cols = numerics_mod._stack_columns(vectors)
    dim = cols.shape[0]
    if dim == 0 or cols.shape[1] == 0:
        return np.zeros((dim, 0), dtype=complex), 0
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    ref = float(s[0])
    if ref <= 0.0:
        return np.zeros((dim, 0), dtype=complex), 0
    rank = int(np.sum(s > tol.rank_eps * ref))
    return numerics_mod._canonical_phases(u[:, :rank]), rank


def _clustered_sets():
    """Wide sets whose singular values come in tight clusters."""
    rng = np.random.default_rng(23)
    out = []
    for dim, width, sigmas in [(6, 40, [1.0, 1.0, 1.0 + 1e-9, 0.5, 0.5 - 1e-12]),
                               (8, 64, [2.0] * 4 + [1e-3] * 2),
                               (5, 9, [1.0] * 5)]:
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        v, _ = np.linalg.qr(rng.standard_normal((width, len(sigmas)))
                            + 1j * rng.standard_normal((width, len(sigmas))))
        out.append(u[:, :len(sigmas)] @ np.diag(sigmas) @ v.conj().T)
    return out


def _corpus_spanning_sets(corpus, built_chains):
    """Every set the chains span: rho(A) W H per level, rho(A) W Delta* H at
    level 0."""
    for case in corpus:
        system = case.pair.system
        for k, level in enumerate(built_chains[case.name].levels):
            ext = level.ext
            depth = ext.rho.max_depth if system.is_tower else None
            yield basis_images(system, ext.rho, depth, ext.isometry)
            if k == 0:
                _, delta_star = defect_roots(case.pair)
                yield basis_images(system, ext.rho, depth, ext.isometry @ delta_star)


def test_qr_first_span_matches_direct_svd(corpus, built_chains):
    wide = 0
    for cols in [*_corpus_spanning_sets(corpus, built_chains), *_clustered_sets()]:
        basis, rank = orthonormal_span(cols)
        ref, ref_rank = direct_svd_span(cols)
        assert rank == ref_rank
        assert spectral_norm(basis @ basis.conj().T - ref @ ref.conj().T) <= 1e-12
        wide += cols.shape[1] > cols.shape[0]
    assert wide > len(corpus)


def test_chain_through_direct_svd_span_is_equivalent(corpus, built_chains, monkeypatch):
    """A chain built through the direct SVD span is unitarily equivalent to
    the QR-first chain, certified by the package's own intertwiner."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("covdilate") and hasattr(mod, "orthonormal_span"):
            monkeypatch.setattr(mod, "orthonormal_span", direct_svd_span)
    for case in corpus:
        ref = coisometric_extend(case.pair, case.levels, case.strategy, DEFAULT_TOL)
        cert = chain_intertwiner(ref, built_chains[case.name])
        assert cert.verdict == "equivalent", (case.name, cert.residuals)


# ---------------------------------------------------------------------------
# the one singular-value rank rule: the complement from the basis's own SVD
# against the projector route, and the rank-only route against the span
# ---------------------------------------------------------------------------

def projector_complement(basis, tol=DEFAULT_TOL):
    """The complement as the span of the D x D projector I - B B*, whose
    singular values are 0 or 1, cut at rank_eps relative to a unit scale."""
    dim = basis.shape[0]
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    u, s, _ = np.linalg.svd(np.eye(dim) - basis @ basis.conj().T)
    return u[:, :int(np.sum(s > tol.rank_eps * max(float(s[0]), 1.0)))]


def _random_orthonormal(dim, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))
    return q


def _assert_same_complement(basis):
    comp = orthonormal_complement(basis)
    ref = projector_complement(basis)
    assert comp.shape == ref.shape
    assert spectral_norm(comp @ comp.conj().T - ref @ ref.conj().T) <= 1e-12
    assert spectral_norm(comp.conj().T @ basis) <= 1e-12


@pytest.mark.parametrize("dim,k", [(6, 0), (6, 6), (40, 3), (12, 11), (64, 16), (1, 1)])
def test_complement_matches_projector_route_on_random_bases(dim, k):
    """k = 0, k = D, tall and near-square orthonormal bases."""
    _assert_same_complement(_random_orthonormal(dim, k, 31 * dim + k))


def test_complement_matches_projector_route_on_corpus_defect_bases(corpus, built_chains):
    count = 0
    for case in corpus:
        for level in built_chains[case.name].levels:
            _assert_same_complement(level.defect_basis)
            count += 1
    assert count >= len(corpus)


def test_rank_only_route_matches_the_span():
    """dilation/minimal, stinespring_minimal and gns take svd_rank of a
    spanning set, defect/row-onto of the adjoint of one; each gives the rank
    orthonormal_span gives the set."""
    for cols in _clustered_sets():
        _, rank = orthonormal_span(cols)
        assert svd_rank(cols) == rank
        assert svd_rank(cols.conj().T) == rank


# ---------------------------------------------------------------------------
# threshold-aware clause values: the norm bound and its exact fallback
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _slices(rng, count, rows, cols, rank, scales):
    """``count`` slices of the given rank (0: all zero), each scaled by one
    of ``scales``."""
    r = min(rank, rows, cols)
    left = rng.standard_normal((count, rows, r)) + 1j * rng.standard_normal((count, rows, r))
    right = rng.standard_normal((count, r, cols)) + 1j * rng.standard_normal((count, r, cols))
    return (left @ right) * rng.choice(scales, size=count)[:, None, None]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=10**6))
def test_norm_bound_is_at_least_the_exact_value(count, rows, cols, rank, seed):
    """On square, tall, wide, zero-size, rank-deficient and all-zero slices,
    each scaled by 1, 1e-200 or 1e150, the value a slice gets from its bound
    (an infinite threshold decides every slice by it) is at least its exact
    value, for one operator (through ``spectral_norm`` too) and for a pair."""
    rng = np.random.default_rng(seed)
    a = _slices(rng, count, rows, cols, rank, SLICE_SCALES)
    b = _slices(rng, count, rows, cols, rank, SLICE_SCALES)
    for x, y in zip(a, b):
        bound = numerics_mod._clause_max(x[None], np.inf)
        exact = numerics_mod._clause_max(x[None])
        assert bound >= exact * (1.0 - 4.0 * EPS), (x.shape, bound, exact)
        assert spectral_norm(x, np.inf) == bound
        if x.size:
            assert isinstance(spectral_norm(x, np.inf), numerics_mod.UpperBound)
        bound = residual(x, y, np.inf)
        exact = residual(x, y)
        assert bound >= exact * (1.0 - 4.0 * EPS), (x.shape, bound, exact)
        if x.size:
            assert isinstance(bound, numerics_mod.UpperBound)


def test_norm_bound_denominator_is_range_safe():
    # column norms of these operands overflow (16 entries of 1e155 square to
    # 1.6e311); the entry maxima do not, so the bound stays above the exact
    # value instead of collapsing to 0
    a = np.full((16, 16), 1e155, dtype=complex)
    b = a.copy()
    b[0, 0] *= 1.0 + 1e-3
    assert residual(a, b, np.inf) >= residual(a, b) > 0.0


def test_bound_path_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            residual(np.array([[1.0, 0.0]]), np.array([[bad, 0.0]]), 1e-8)
        with pytest.raises(ValueError, match="finite"):
            numerics_mod.basis_sweep(np.array([[[1.0, bad]]]), lambda c: (c,),
                                     lambda c: c, threshold=1e-8)


def test_a_clause_just_above_its_threshold_fails_with_its_exact_value():
    rng = np.random.default_rng(41)
    a = np.eye(5) + 1e-6 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    exact = residual(a, np.eye(5))
    threshold = exact * (1.0 - 1e-6)
    value = residual(a, np.eye(5), threshold)
    assert value > threshold and not isinstance(value, numerics_mod.UpperBound)
    assert value == exact
    cl = clause("probe", "A = I", value, threshold)
    assert not cl.passed and not cl.bound and "residual_kind" not in cl.as_dict()
    # the same slice inside a sweep of passing slices
    stack = np.stack([np.eye(5), a, np.eye(5) * (1 + 1e-15)])
    args = (stack, lambda c: (c,), lambda c: (c, np.broadcast_to(np.eye(5), c.shape)))
    (swept,) = numerics_mod.basis_sweep(*args, threshold=threshold)
    (plain,) = numerics_mod.basis_sweep(*args)
    assert swept == plain == exact


def test_a_clause_at_its_threshold_passes():
    rng = np.random.default_rng(43)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = a + 1e-9 * rng.standard_normal((4, 4))
        threshold = residual(a, b)
        value = residual(a, b, threshold)
        assert value <= threshold
        assert clause("probe", "A = B", value, threshold).passed


def test_mixed_chunk_runs_the_exact_kernel_on_its_fallback_slices(monkeypatch):
    """Slices whose bound decides them skip the eigensolves; a max above
    the threshold is the exact max, and one at or below it is a bound."""
    rng = np.random.default_rng(47)
    eye = np.eye(6, dtype=complex)
    noise = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
    a = eye + 1e-14 * noise
    a[2] = eye + 1e-3 * noise[2]      # fails at 1e-6
    # a unitary has ||U||_F = sqrt(6) ||U||_2: bound above 1e-6, exact below
    unitary, _ = np.linalg.qr(noise[5])
    a[5] = eye + 1.5e-6 * unitary
    b = np.broadcast_to(eye, a.shape)
    threshold = 1e-6
    grams = []
    real_gram = numerics_mod._scaled_gram

    def recording(stack, scale, out=None):
        grams.append(len(stack))
        return real_gram(stack, scale, out)

    monkeypatch.setattr(numerics_mod, "_scaled_gram", recording)
    (value,) = numerics_mod.basis_sweep(a, lambda c: (c,),
                                        lambda c: (c, np.broadcast_to(eye, c.shape)),
                                        threshold=threshold)
    exact = max(residual(x, eye) for x in a)
    assert value == exact > threshold
    assert not isinstance(value, numerics_mod.UpperBound)
    # A - B, A and B of the two fallback slices only
    assert grams[:3] == [2, 2, 2]

    # without the failing slice: the passing exact slice and the bounds
    a[2] = a[0]
    (value,) = numerics_mod.basis_sweep(a, lambda c: (c,),
                                        lambda c: (c, np.broadcast_to(eye, c.shape)),
                                        threshold=threshold)
    exact = max(residual(x, eye) for x in a)
    assert exact * (1.0 - 4.0 * EPS) <= value <= threshold
    for x in a:
        bound = residual(x, eye, np.inf)
        assert value >= min(bound, residual(x, eye))


def test_keep_sweep_memory_sets_the_heap_thresholds_once(monkeypatch):
    # every cli.run calls it; a CDLL (and its function-pointer class) is
    # built on the first call of the process only
    built = []
    real = numerics_mod.ctypes.CDLL

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics_mod.ctypes, "CDLL", counting)
    numerics_mod.keep_sweep_memory.cache_clear()
    for _ in range(5):
        numerics_mod.keep_sweep_memory()
    assert len(built) == 1
