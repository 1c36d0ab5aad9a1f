"""Complex-matrix kernels used by every construction in the package.

All Hilbert spaces in scope are finite dimensional, so operator identities
are checked in the spectral norm and subspace closures are plain linear
spans.  Operators on a direct sum may be kept as their nonzero blocks
(:class:`BlockOperator`); the clause kernel values them per component of
their block pattern, with the dense values.  Everything here is a pure
function of its inputs and deterministic, which the report layer relies on
for byte-identical reruns; :func:`keep_sweep_memory` only sets how the C
heap keeps freed memory, which changes no value.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPositive

ComplexMatrix = np.ndarray


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by all verifications.

    Parameters
    ----------
    rank_eps : float
        Relative singular-value cutoff for rank and span decisions.
    residual_tol : float
        Assertion threshold for operator identities.
    psd_floor : float
        Most negative admissible eigenvalue when certifying positivity.
    """

    rank_eps: float = 1e-10
    residual_tol: float = 1e-8
    psd_floor: float = 1e-10

    def __post_init__(self):
        if not (self.rank_eps > 0 and self.residual_tol > 0 and self.psd_floor > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.rank_eps > self.residual_tol:
            raise ValueError("rank_eps must not exceed residual_tol")


DEFAULT_TOL = Tolerance()


def certified(obj, key, compute):
    """The certificate ``compute()`` of ``obj`` under ``key`` (a tolerance,
    with whatever else the report depends on): computed on the first request
    and held by ``obj`` for every later one.  ``obj`` holds read-only copies
    of the arrays a certificate covers from the moment it is built
    (:func:`read_only`), so an in-place write raises instead of leaving a
    held report stale."""
    held = vars(obj).setdefault("_certificates", {})
    if key not in held:
        held[key] = compute()
    return held[key]


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``.  The copy owns its data, so neither the
    caller's array nor the base of a view can change it later, and a write
    through it raises ``ValueError``."""
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def spectral_norm(a, threshold: float | None = None) -> float:
    """Largest singular value; zero for empty matrices.  A
    :class:`BlockOperator` is valued per component of its pattern.

    With a ``threshold`` the value is decided as in :func:`basis_sweep`:
    exact above it, and at or below it possibly an :class:`UpperBound`
    (the Frobenius norm), which is returned as such."""
    if isinstance(a, BlockOperator):
        return _clause_max(a, threshold)
    if threshold is not None:
        return _clause_max(np.asarray(a, dtype=complex)[None], threshold)
    return float(_spectral_norms(np.asarray(a, dtype=complex)))


# divisor floor of an all-zero slice, whose Gram is then exactly zero
_TINY = np.finfo(float).tiny


def _spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a stack (0 when zero-size).

    sigma_max is the square root of the top eigenvalue of the smaller Gram
    side, X* X or X X*, of each slice scaled by its largest entry modulus.
    A non-finite entry raises ValueError.
    """
    rows, cols = stack.shape[-2:]
    if rows * cols == 0:
        return np.zeros(stack.shape[:-2])
    scale = _finite_scale(stack)
    return _top_norms(_scaled_gram(stack, scale), scale)


def _entry_scale(stack) -> np.ndarray:
    # largest entry modulus of each slice; an all-zero slice gets the
    # smallest normal float, and its Gram is exactly zero
    return np.maximum(np.abs(stack).max(axis=(-2, -1)), _TINY)


def _scaled_gram(stack, scale, out=None) -> np.ndarray:
    """The Gram (X*/s) X of each finite slice (X (X*/s) when X is wide),
    s its entry scale.

    Dividing one factor by s keeps every product and sum inside the
    floating-point range for entries up to about 1e308 / max(rows, cols).
    Besides the input this holds one scaled adjoint and the Gram (written
    to ``out`` when given).
    """
    rows, cols = stack.shape[-2:]
    adj = np.conj(stack).swapaxes(-1, -2)
    adj /= scale[..., None, None]
    return np.matmul(adj, stack, out=out) if cols <= rows else np.matmul(stack, adj, out=out)


def _top_norms(gram, scale) -> np.ndarray:
    """sigma_max of each slice from its scaled Gram, whose top eigenvalue
    is sigma_max^2 / s."""
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1] / scale) * scale


class UpperBound(float):
    """A clause value decided by its norm bound at or below the threshold it
    was computed against: an upper bound on the exact value, not the value.

    The max of values keeps the type of the larger one, so a max over slices
    or clauses is an :class:`UpperBound` exactly when a bound attains it.
    """

    __slots__ = ()


def residual(aop, bop, threshold: float | None = None) -> float:
    """Scale-free distance ||A - B|| / (1 + max(||A||, ||B||)), spectral norm.

    With a ``threshold`` the value is decided as in :func:`basis_sweep`:
    exact when it is above the threshold, possibly an :class:`UpperBound`
    when it is not.  The entry maximum of A - B is the finiteness check of
    both operands (ValueError).
    """
    if isinstance(aop, BlockOperator):
        return _clause_max((aop, bop), threshold)
    a, b = (np.asarray(x, dtype=complex) for x in (aop, bop))
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return _clause_max((a[None], b[None]), threshold)


# byte cap on what one chunk of a basis sweep holds: its coordinate rows,
# their images and the clause operators built from them
SWEEP_STACK_BYTES = 1 << 19

# glibc's malloc thresholds (mallopt parameters M_TRIM_THRESHOLD = -1 and
# M_MMAP_THRESHOLD = -3), fixed at the ceiling its adaptive rule reaches on
# 64-bit systems
_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES = -1, 1 << 26
_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES = -3, 1 << 25


@functools.cache
def keep_sweep_memory() -> None:
    """Let the C heap keep the memory that sweeps free (glibc only), once
    per process: later calls return at once, with no new ``CDLL``.

    A sweep frees its whole chunk before it builds the next.  glibc returns
    the top of its heap to the kernel once more than its trim threshold is
    free there, and adapts that threshold to twice the largest block it has
    unmapped so far.  A process that has freed no large block therefore
    gives the memory of every chunk back and page-faults it in again for
    the next one: on the k = 2, rep_depth = 3 tower about 12000 minor faults
    per ``extend``, about a third of its time.  Fixing both thresholds at the
    adaptive rule's ceiling makes the cost of a sweep independent of what
    the process freed before it.  Without glibc's ``mallopt`` this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # no glibc in this process
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_BYTES)


def _row_count(rows) -> int:
    return int(rows) if isinstance(rows, (int, np.integer)) else len(rows)


def _row_slice(rows, lo: int, hi: int) -> np.ndarray:
    # an int n stands for the coordinates of the basis, the rows of I_n,
    # built one chunk at a time
    if isinstance(rows, (int, np.integer)):
        return np.eye(hi - lo, int(rows), lo, dtype=complex)
    return rows[lo:hi]


def _nbytes(obj) -> int:
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, BlockOperator):
        return sum(b.nbytes for b in obj.blocks.values())
    return np.asarray(obj).nbytes


def _sweep(rows, images, clauses, consume) -> None:
    """Call ``consume(lo, hi, terms)`` for consecutive row chunks of ``rows``.

    ``terms`` holds each clause applied to ``images(chunk)``.  The first
    chunk is one row; what it holds sets the chunk size to about
    ``SWEEP_STACK_BYTES`` (at least one row).  Images and clause operators
    count twice: images are assembled from intermediate stacks of their own
    size, and a pair is reduced through the stack [A - B; A; B].  A chunk is
    dropped before the next one is built.
    """
    total = _row_count(rows)
    lo, step = 0, 1
    while lo < total:
        hi = min(total, lo + step)
        chunk = _row_slice(rows, lo, hi)
        imgs = images(chunk)
        terms = [clause(*imgs) for clause in clauses]
        if lo == 0:
            held = _nbytes(chunk) + 2 * _nbytes((imgs, terms))
            step = max(1, SWEEP_STACK_BYTES // max(held, 1))
        consume(lo, hi, terms)
        del chunk, imgs, terms
        lo = hi


def basis_sweep(rows, images, *clauses, threshold: float | None = None) -> list[float]:
    """Max over the rows of ``rows`` of each clause, chunk by chunk.

    ``rows`` is an array whose first axis runs over the elements (coordinate
    rows, or index rows), or an int n for the basis coordinates I_n.
    ``images(chunk)`` returns the stacks the clauses share, one slice per
    row; a clause maps them to a pair of stacks ``(A, B)``, each slice valued
    :func:`residual` ``(A_i, B_i)``, or to one stack valued by spectral norms.
    A stack may be a :class:`BlockOperator` of stacked blocks, reduced per
    component of its pattern (see :func:`_clause_max`).
    A chunk holds about ``SWEEP_STACK_BYTES`` (or one row) and nothing
    outlives the call.  0.0 over an empty family.

    With a ``threshold`` each slice is first valued by a norm bound (Golub &
    Van Loan 2.3: ||X||_F >= ||X||_2 >= max_ij |x_ij|), for a pair
    ||A - B||_F / (1 + max(max_ij |a_ij|, max_ij |b_ij|)) and for one stack
    ||X||_F, and only the slices whose bound is above the threshold get the
    exact value.  A clause above its threshold is therefore exactly the
    value without one; at or below it, the value may be an
    :class:`UpperBound`.  The Frobenius norm is s ||X / s||_F with s the
    largest entry modulus, and the denominator uses entry maxima, not
    column norms: neither leaves the floating-point range for finite
    entries, where an overflowing denominator would turn the bound into 0.
    """
    worst = [0.0] * len(clauses)

    def reduce(lo, hi, terms):
        for c, term in enumerate(terms):
            worst[c] = max(worst[c], _clause_max(term, threshold))

    _sweep(rows, images, clauses, reduce)
    return worst


def _clause_max(term, threshold: float | None = None) -> float:
    """Largest value of one clause over a chunk.

    One stack is valued by its spectral norms.  A pair ``(A, B)`` is valued
    slice by slice ||A - B|| / (1 + max(||A||, ||B||)) and reduced part by
    part: the norms of A - B first, then those of A and B from one
    eigensolve over their two Gram stacks.  Either phase holds no more than
    three operator stacks, as much as the stack [A - B; A; B].  A non-finite
    entry of A or B makes A - B non-finite, which raises first.  With a
    ``threshold``, slices whose norm bound is at or below it are valued by
    the bound and skip both eigensolves (see :func:`basis_sweep`).

    Block operators (:class:`BlockOperator`) are valued component by
    component of their joint pattern, all components in one padded stack:
    per slice the norm, the squared Frobenius bound and the entry maxima
    are the maximum, the sum and the maximum over the components, which
    are exact (see the class docstring).  A plain stack is one component.
    With a ``threshold`` the bounds come from the stored blocks alone
    (:func:`_block_entries`), and the padded stack is assembled only for
    the slices whose bound is above it.
    """
    ops = term if isinstance(term, tuple) else (term,)
    blocked = isinstance(ops[0], BlockOperator)
    if blocked and threshold is not None:
        stacks = _block_entries(ops)
    else:
        stacks = _component_stacks(ops) if blocked \
            else [np.asarray(op, dtype=complex)[None] for op in ops]
    a = b = None
    if len(stacks) == 2:
        a, b = stacks
        if a.shape != b.shape:
            raise DimensionMismatch(f"shape {a.shape[2:]} vs {b.shape[2:]}")
        diff = a - b
    else:
        (diff,) = stacks
    if diff.size == 0:
        return 0.0
    scale = _slice_scale(diff)
    if not math.isfinite(scale.max()):
        raise ValueError("matrix entries must be finite")
    top = 0.0
    if threshold is not None:
        bounds = _slice_frobenius(diff, scale)
        if a is not None:
            bounds /= 1.0 + np.maximum(_slice_scale(a), _slice_scale(b))
        over = bounds > threshold
        top = float(bounds.max(initial=0.0, where=~over))
        if not over.any():
            return UpperBound(top)
        if blocked:
            stacks = _component_stacks(ops, slices=None if over.all() else over)
            a, b = stacks if len(stacks) == 2 else (None, None)
            diff = a - b if a is not None else stacks[0]
            scale = scale[over]
        elif not over.all():
            diff, scale = diff[:, over], scale[over]
            if a is not None:
                a, b = a[:, over], b[:, over]
    # each component scaled by its slice's scale: a tiny component may lose
    # its Gram to underflow, but never the largest, which sets the max
    parts = len(diff)
    scale = np.tile(scale, parts)
    values = _top_norms(_scaled_gram(_flat(diff), scale), scale)
    del diff
    values = values.reshape(parts, -1).max(axis=0)
    if a is not None:
        values /= 1.0 + _pair_norms(_flat(a), _flat(b)).reshape(parts, -1).max(axis=0)
    worst = float(values.max())
    return UpperBound(top) if worst < top else worst


def _flat(stack) -> np.ndarray:
    # (K, m, r, s) component stacks as one (K m, r, s) stack
    return stack.reshape((math.prod(stack.shape[:-2]),) + stack.shape[-2:])


def _slice_scale(stack) -> np.ndarray:
    """The largest entry modulus of each slice of a (K, m, r, s) component
    stack, over its components (the smallest normal float for zero)."""
    return np.maximum(np.abs(stack).max(axis=(0, 2, 3)), _TINY)


def _slice_frobenius(stack, scale) -> np.ndarray:
    """s ||X / s||_F of each slice of a (K, m, r, s) component stack over its
    components, s its entry scale: every entry of X / s is at most 1 in
    modulus, so the sum of squares stays in range."""
    flat = np.divide(stack, scale[:, None, None], order="C").view(float)
    np.multiply(flat, flat, out=flat)
    return np.sqrt(flat.sum(axis=(0, 2, 3))) * scale


def _finite_scale(stack) -> np.ndarray:
    """:func:`_entry_scale` of each slice; a non-finite entry raises ValueError."""
    scale = _entry_scale(stack)
    if not math.isfinite(scale.max(initial=0.0)):
        raise ValueError("matrix entries must be finite")
    return scale


def _pair_norms(a, b) -> np.ndarray:
    """max(||A_i||, ||B_i||) of each slice pair, from one eigensolve over
    the two scaled Gram stacks."""
    m = a.shape[0]
    side = min(a.shape[-2:])
    grams = np.empty((2 * m, side, side), dtype=complex)
    scales = np.concatenate([_entry_scale(a), _entry_scale(b)])
    _scaled_gram(a, scales[:m], grams[:m])
    _scaled_gram(b, scales[m:], grams[m:])
    norms = _top_norms(grams, scales)
    return np.maximum(norms[:m], norms[m:])


def stack_images(rows, images, right=None) -> np.ndarray:
    """``images(chunk)`` over the row chunks of ``rows``, kept whole.

    Without ``right`` this is the (N, d, d) stack of images.  With ``right``
    it is the spanning set ``np.hstack([X_1 @ right, ..., X_N @ right])``,
    filled chunk by chunk so that only the (d, N * cols) result is kept.
    """
    total = _row_count(rows)
    out = None

    def fill(lo, hi, terms):
        nonlocal out
        (term,) = terms
        if out is None:
            shape = (total,) + term.shape[1:] if right is None \
                else (term.shape[1], total, term.shape[2])
            out = np.empty(shape, dtype=complex)
        if right is None:
            out[lo:hi] = term
        else:
            out[:, lo:hi] = term.transpose(1, 0, 2)

    clause = (lambda x: x) if right is None else (lambda x: x @ right)
    _sweep(rows, lambda c: (images(c),), (clause,), fill)
    if right is None:
        return out
    d, _, cols = out.shape
    return out.reshape(d, total * cols)


def kron_eye(x, m: int) -> np.ndarray:
    """x (x) I_m over the last two axes, with np.kron's entries, by strided
    assignment into zeros."""
    x = np.asarray(x)
    *lead, rows, cols = x.shape
    out = np.zeros((*lead, rows, m, cols, m), dtype=complex)
    idx = np.arange(m)
    out[..., :, idx, :, idx] = x
    return out.reshape(*lead, rows * m, cols * m)


def eye_kron(k: int, x) -> np.ndarray:
    """I_k (x) x over the last two axes, with np.kron's entries, by strided
    assignment into zeros."""
    x = np.asarray(x)
    *lead, rows, cols = x.shape
    out = np.zeros((*lead, k, rows, k, cols), dtype=complex)
    idx = np.arange(k)
    out[..., idx, :, idx, :] = x
    return out.reshape(*lead, k * rows, k * cols)


def block_slices(dims) -> tuple:
    """Index range of each summand of a direct sum with the given dimensions."""
    return _block_slices(dims if type(dims) is tuple else tuple(map(int, dims)))


# a report reuses a handful of layouts and block patterns, chunk after chunk
@functools.lru_cache(maxsize=64)
def _block_slices(dims: tuple) -> tuple:
    ends = list(itertools.accumulate(dims, initial=0))
    return tuple(map(slice, ends, ends[1:]))


def hermitian_residual(a, threshold: float | None = None) -> float:
    """residual(A, A*), decided against ``threshold`` when one is given."""
    m = as_matrix(a)
    return residual(m, m.conj().T, threshold)


def psd_sqrt(mat, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian positive square root of a PSD matrix, V diag(s) V* from one
    eigendecomposition of its Hermitian part (:func:`hermitian_root`).

    Eigenvalues in ``[-psd_floor, psd_floor]`` are clamped to zero (the
    square root amplifies eigenvalue noise at zero to its own square root,
    so numerically-zero eigenvalues must not survive); anything below
    ``-psd_floor`` raises :class:`NotPositive`, and a Hermitian residual
    above ``residual_tol`` :class:`NotHermitian`.
    """
    m = as_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {m.shape}")
    if m.shape[0] == 0:
        return m.copy()
    skew = hermitian_residual(m, tol.residual_tol)
    if skew > tol.residual_tol:
        raise NotHermitian(f"hermitian residual {skew:.3e}")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    if vals[0] < -tol.psd_floor:
        raise NotPositive(f"eigenvalue {vals[0]:.3e} below -psd_floor")
    vals = np.where(np.abs(vals) <= tol.psd_floor, 0.0, np.clip(vals, 0.0, None))
    return hermitian_root(vecs, np.sqrt(vals))


def hermitian_root(vecs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """V diag(s) V*, made exactly Hermitian by averaging with its adjoint."""
    root = (vecs * s) @ vecs.conj().T
    return (root + root.conj().T) / 2.0


def _canonical_phases(basis: np.ndarray) -> np.ndarray:
    # Fix the free phase of each column: largest-magnitude entry made real
    # positive (first index wins ties), so repeated runs are bit-stable.
    if basis.size == 0:
        return basis.copy()
    z = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    nonzero = z != 0
    return basis * (np.where(nonzero, z.conj(), 1.0) / np.where(nonzero, np.abs(z), 1.0))


def _stack_columns(vectors) -> np.ndarray:
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return np.asarray(vectors, dtype=complex)
    cols = []
    dim = None
    for v in vectors:
        c = np.asarray(v, dtype=complex).reshape(-1)
        if dim is None:
            dim = c.size
        elif c.size != dim:
            raise DimensionMismatch(f"vector of dimension {c.size}, expected {dim}")
        cols.append(c)
    if not cols:
        return np.zeros((0, 0), dtype=complex)
    return np.column_stack(cols)


def orthonormal_span(vectors, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the span of the given column vectors.

    Accepts either a 2-D array whose columns are the vectors or a sequence
    of 1-D vectors.  Rank is decided by :func:`ranked_svds`.  The returned
    basis is an SVD basis with canonical column phases, hence deterministic
    for a given input.  A wide set (more vectors than their dimension) is
    first reduced to the triangular factor R of ``cols* = Q R``: ``R*`` has
    the singular values and left singular vectors of ``cols``, and its SVD
    does not build the long right factor.
    """
    cols = _stack_columns(vectors)
    if cols.shape[1] > cols.shape[0]:
        cols = np.linalg.qr(cols.conj().T, mode="r").conj().T
    ((u, _, _),) = ranked_svds([cols], tol)
    basis = _canonical_phases(u)
    return basis, basis.shape[1]


def rank_cutoff(svals, tol: Tolerance = DEFAULT_TOL, top: float = 0.0) -> float:
    """The cutoff of the package's one singular-value rank rule: ``rank_eps``
    times the largest of the descending arrays ``svals`` and of ``top``, a
    singular value known without an SVD.  A singular value is kept when it
    exceeds the cutoff."""
    return tol.rank_eps * max([float(s[0]) for s in svals if s.size] + [float(top)])


def ranked_svds(blocks, tol: Tolerance = DEFAULT_TOL, compute_uv: bool = True,
                full_matrices: bool = False, top: float = 0.0) -> list:
    """One SVD per diagonal block of a block-diagonal matrix, truncated to
    its kept singular values under :func:`rank_cutoff` over all blocks.

    The cutoff is also that of ``np.linalg.pinv`` with ``rcond=rank_eps``.
    ``top`` is a singular value of the matrix known without an SVD, from a
    block not passed (an identity block has 1); the largest is then taken
    over it too.  Each entry is ``(u, s, vh)``, with ``u`` and ``vh`` None
    unless ``compute_uv``; ``len(s)`` is the block's rank.  With
    ``full_matrices`` ``u`` keeps all its columns, and those past the rank
    span the orthogonal complement of the block's range (a block with no
    more rows than columns already has a square ``u`` in its thin SVD,
    whose long right factor is then not built).
    """
    svds = [np.linalg.svd(b, full_matrices=full_matrices and b.shape[0] > b.shape[1])
            if compute_uv
            else (None, np.linalg.svd(b, compute_uv=False), None) for b in blocks]
    cut = rank_cutoff([s for _, s, _ in svds], tol, top)
    out = []
    for u, s, vh in svds:
        k = np.count_nonzero(s > cut)
        out.append((u, s[:k], vh) if u is None
                   else (u if full_matrices else u[:, :k], s[:k], vh[:k]))
    return out


def svd_rank(mat, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a matrix under :func:`ranked_svds`, from its singular values
    alone."""
    ((_, s, _),) = ranked_svds([mat], tol, compute_uv=False)
    return len(s)


def svd_pinv(u, s, vh) -> np.ndarray:
    """The pseudo-inverse V S^-1 U* from a truncated thin SVD; a ``u`` of
    None stands for the identity."""
    inv = vh.conj().T / s
    return inv if u is None else inv @ u.conj().T


def block_pinv(op: "BlockOperator", svds) -> "BlockOperator":
    """The pseudo-inverse of a block operator from the truncated SVDs of the
    components of its pattern (in :meth:`BlockOperator.components` order,
    as :func:`ranked_svds` returns them for ``op.component_blocks()``): the
    direct sum of the components' pseudo-inverses, on the transposed
    layout."""
    blocks = {}
    for (rows, cols), svd in zip(op.components(), svds):
        inv = svd_pinv(*svd)
        rs = block_slices([op.rows[i] for i in rows])
        cs = block_slices([op.cols[j] for j in cols])
        blocks.update({(j, i): inv[c, r] for j, c in zip(cols, cs) for i, r in zip(rows, rs)})
    return BlockOperator(op.cols, op.rows, blocks)


class Leaf(NamedTuple):
    """One summand 1_m (x) a_block (x) 1_r of a factor form (see
    :func:`intertwiner_bound`), a in the summand ``block`` of the algebra, of
    side n, and the rows of the lift B on it: ``iso`` on the coordinates
    ``span`` of the representation's space (None: the identity there).
    ``defect`` is ||B_span* B_span - I||_F for the rows B_span of B on the
    span, which round-off keeps from being exactly 0 for a computed basis."""

    m: int
    n: int
    r: int
    span: slice
    iso: Optional[np.ndarray] = None
    block: int = 0
    defect: float = 0.0


def intertwiner_bound(x, rows, cols) -> float:
    """2 ||X' - E(X')||_F: a bound on ||X sigma(a) - tau(a) X|| for every a
    of norm <= 1 (proof in :mod:`~covdilate.extension`), widened by the
    lifts' isometry defects when they are not 0.

    ``rows`` and ``cols`` are the factor forms of tau and sigma, tuples of
    :class:`Leaf`: tau(a) = B* F(a) B, F(a) the direct sum over the leaves
    of 1_m (x) a_block (x) 1_r and B the isometry whose rows on a leaf are
    its ``iso`` on its ``span``.  X' = B_tau X B_sigma*, and E is the
    Frobenius projection onto the intertwiners of F_sigma and F_tau: on the
    block Y of a leaf pair over one summand of the algebra the average over
    the middle factor, E(Y)[a,i,c,a',j,c'] = delta_ij (1/n) sum_l
    Y[a,l,c,a',l,c'], and zero on a pair over two summands.  A
    :class:`BlockOperator` X takes one factor form per row block in ``rows``
    and per column block in ``cols``, and only its stored blocks enter.

    E(Y) is subtracted, never expanded into ||Y||^2 - ||E(Y)||^2, which
    would cancel every digit of a value near 0.  The diagonal blocks are
    centred on the first before they are averaged, Y_ll - mean_l Y_ll =
    (Y_ll - Y_00) - mean_l (Y_ll - Y_00), so that a Y that is 1 (x) Z
    entry for entry gives exactly 0.

    With G = B* B, e = max ||G - I||_F over the spans of a form and ||B||^2
    = ||G|| <= 1 + e, the lifted clause is G_tau X sigma(a) - tau(a) X
    G_sigma, so ||X sigma(a) - tau(a) X|| <= (1 + e_tau)^(1/2) (1 +
    e_sigma)^(1/2) 2 ||X' - E(X')||_F + ||X||_F (e_tau (1 + e_sigma) + (1 +
    e_tau) e_sigma), the value returned.
    """
    if not isinstance(x, BlockOperator):
        x, rows, cols = as_blocks(x), (rows,), (cols,)
    norms = []
    for (i, j), block in x.blocks.items():
        for q in rows[i]:
            for p in cols[j]:
                if q.block == p.block and q.n == 1:
                    continue        # a is a scalar there, and every Y intertwines
                y = block[q.span, p.span]
                if q.iso is None and p.iso is None:
                    y = y.copy()
                if q.iso is not None:
                    y = q.iso @ y
                if p.iso is not None:
                    y = y @ p.iso.conj().T
                if q.block == p.block:
                    y = y.reshape(q.m, q.n, q.r, p.m, p.n, p.r)
                    idx = np.arange(q.n)
                    diag = y[:, idx, :, :, idx, :]
                    diag = diag - diag[0]
                    y[:, idx, :, :, idx, :] = diag - diag.mean(axis=0)
                norms.append(np.linalg.norm(y))
    bound = 2.0 * math.hypot(*norms)
    e_t, e_s = (max((leaf.defect for form in forms for leaf in form), default=0.0)
                for forms in (rows, cols))
    if e_t or e_s:
        size = math.hypot(*(np.linalg.norm(b) for b in x.blocks.values()))
        bound = math.sqrt((1.0 + e_t) * (1.0 + e_s)) * bound \
            + size * (e_t * (1.0 + e_s) + (1.0 + e_t) * e_s)
    return bound


def commutant_bound(basis: np.ndarray, form) -> float:
    """2 ||P - E(P)||_F for P = B B*, ``basis`` B with orthonormal columns:
    a bound on ||(I - P) F(a) B|| for every a of norm <= 1, F(a) the direct
    sum over the leaves of the factor form ``form`` (a tuple of
    :class:`Leaf` with no lift, see :func:`intertwiner_bound`; proof in
    :mod:`~covdilate.extension`).  It is the X = P case of
    :func:`intertwiner_bound`: E projects onto the commutant of F(A),
    averaging P over the middle factor on every pair of leaves over the same
    summand of the algebra, together, and zero on a pair over two summands.
    With e = ||B* B - I||_F, the round-off of B's orthonormality, it is
    widened to (1 + e)^(1/2) (2 ||P - E(P)||_F + e (2 + e)), which at depth
    0 (E the identity) is all of it.
    """
    e = _isometry_defect(basis)
    bound = intertwiner_bound(basis @ basis.conj().T, form, form)
    return math.sqrt(1.0 + e) * (bound + e * (2.0 + e))


def _isometry_defect(a: np.ndarray) -> float:
    """||A* A - I||_F."""
    gram = a.conj().T @ a
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.linalg.norm(gram))


def gram_quotient(gram: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinates for the Hilbert-space quotient defined by a PSD Gram form.

    Returns ``(cmap, lift, rank)`` with ``cmap.conj().T @ cmap`` recovering
    the Gram matrix on the quotient: a vector with coefficient column ``c``
    gets quotient coordinates ``cmap @ c``, and ``lift`` is the right
    inverse (``cmap @ lift = I``).  Reference route only: the dilations are
    built by :func:`covdilate.cpmaps.kraus_dilation`.
    """
    g = as_matrix(gram)
    if g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"square Gram matrix required, got {g.shape}")
    n = g.shape[0]
    if n == 0:
        z = np.zeros((0, 0), dtype=complex)
        return z, z, 0
    if hermitian_residual(g) > tol.residual_tol:
        raise NotHermitian("Gram form is not hermitian")
    herm = (g + g.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    top = max(vals[-1], 0.0)
    # Large Gram forms accumulate eigenvalue noise proportional to their norm.
    floor = tol.psd_floor * (1.0 + top)
    if vals[0] < -floor:
        raise NotPositive(f"Gram eigenvalue {vals[0]:.3e} below -{floor:.3e}")
    keep = vals > tol.rank_eps * max(top, tol.rank_eps)
    kept_vals = vals[keep][::-1]
    kept_vecs = _canonical_phases(vecs[:, keep][:, ::-1])
    rank = int(kept_vals.size)
    sq = np.sqrt(kept_vals)
    cmap = sq[:, None] * kept_vecs.conj().T
    lift = kept_vecs / sq[None, :]
    return cmap, lift, rank


class BlockOperator:
    """An operator between two direct sums, stored as its nonzero blocks.

    ``rows`` and ``cols`` are the summand dimensions of the target and the
    source (the layout of :func:`block_slices`); ``blocks`` maps a block
    index ``(i, j)`` to the block, a ``(rows[i], cols[j])`` matrix or an
    equal-length stack of them.  A block that is not stored is zero, and a
    zero-size block is never stored.  Differences and products keep the
    layout and store only the blocks they reach; a product with a plain
    array is a dense array, and numpy converts the operator to its dense
    array (``np.asarray``) wherever it meets one as an array operand.

    The clause kernel reduces block operators per connected component of
    their block pattern, the bipartite graph joining row block i to column
    block j for every stored block (i, j).  Two components share no row
    block and no column block, so after a permutation of rows and columns X
    is the direct sum of its components X_c, and

    * ||X|| = max_c ||X_c|| (the singular values of a direct sum are the
      union of those of its summands),
    * ||X||_F^2 = sum_c ||X_c||_F^2 and max_ij |x_ij| = max_c of the
      components' entry maxima,

    all exact.  For a pair the pattern is the union of both patterns, so
    A, B and A - B are all direct sums over the same components, and the
    denominator 1 + max(||A||, ||B||) of a residual is the maximum over the
    components as well.  The pattern is read from the stored blocks: a
    misplaced block joins the pattern and enters every value.
    """

    __slots__ = ("rows", "cols", "blocks", "lead")

    def __init__(self, rows, cols, blocks):
        rows, cols = tuple(map(int, rows)), tuple(map(int, cols))
        kept = {}
        for (i, j), b in blocks.items():
            b = np.asarray(b, dtype=complex)
            if b.shape[-2:] != (rows[i], cols[j]):
                raise DimensionMismatch(f"block {(i, j)} of shape {b.shape[-2:]}, "
                                        f"layout {(rows[i], cols[j])}")
            if rows[i] and cols[j]:
                kept[i, j] = b
        # the stack axes: those of the blocks with the most axes
        lead = max((b.shape[:-2] for b in kept.values()), key=len, default=())
        self.rows, self.cols, self.blocks, self.lead = rows, cols, kept, lead

    @classmethod
    def _of(cls, rows, cols, blocks, lead) -> "BlockOperator":
        # unchecked: the blocks of an operation on checked operators
        out = cls.__new__(cls)
        out.rows, out.cols, out.blocks, out.lead = rows, cols, blocks, lead
        return out

    @classmethod
    def diagonal(cls, mats) -> "BlockOperator":
        """The direct sum of complex matrices (or equal-length stacks of
        them)."""
        rows = tuple(m.shape[-2] for m in mats)
        cols = tuple(m.shape[-1] for m in mats)
        return cls._of(rows, cols, {(k, k): m for k, m in enumerate(mats)
                                    if rows[k] and cols[k]}, mats[0].shape[:-2] if mats else ())

    @classmethod
    def identity(cls, dims, skip=()) -> "BlockOperator":
        """The identity on the direct sum, with the blocks in ``skip`` zero."""
        dims = tuple(map(int, dims))
        return cls._of(dims, dims, {(k, k): np.eye(d, dtype=complex)
                                    for k, d in enumerate(dims) if d and k not in skip}, ())

    def __repr__(self) -> str:
        return f"BlockOperator(rows={self.rows}, cols={self.cols}, blocks={sorted(self.blocks)})"

    @property
    def shape(self) -> tuple:
        return self.lead + (sum(self.rows), sum(self.cols))

    def dense(self) -> np.ndarray:
        """The operator as one array, the zero blocks filled in."""
        rs, cs = block_slices(self.rows), block_slices(self.cols)
        out = np.zeros(self.shape, dtype=complex)
        for (i, j), b in self.blocks.items():
            out[..., rs[i], cs[j]] = b
        return out

    def __array__(self, dtype=None, copy=None):
        d = self.dense()
        return d if dtype is None else d.astype(dtype, copy=False)

    def adjoint(self) -> "BlockOperator":
        return BlockOperator._of(self.cols, self.rows,
                                 {(j, i): np.conj(b).swapaxes(-1, -2)
                                  for (i, j), b in self.blocks.items()}, self.lead)

    def select(self, rows=None, cols=None) -> "BlockOperator":
        """The operator restricted to the given row and column blocks
        (all when None), renumbered in the order given."""
        rows = range(len(self.rows)) if rows is None else rows
        cols = range(len(self.cols)) if cols is None else cols
        ri = {i: n for n, i in enumerate(rows)}
        ci = {j: n for n, j in enumerate(cols)}
        return BlockOperator._of(tuple(self.rows[i] for i in rows),
                                 tuple(self.cols[j] for j in cols),
                                 {(ri[i], ci[j]): b for (i, j), b in self.blocks.items()
                                  if i in ri and j in ci}, self.lead)

    def __sub__(self, other):
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("block layouts differ")
        out = dict(self.blocks)
        for key, b in other.blocks.items():
            out[key] = out[key] - b if key in out else -b
        return BlockOperator._of(self.rows, self.cols, out, max(self.lead, other.lead, key=len))

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            if self.cols != other.rows:
                raise DimensionMismatch("block layouts do not compose")
            by_row: dict = {}
            for (k, j), b in other.blocks.items():
                by_row.setdefault(k, []).append((j, b))
            out: dict = {}
            for (i, k), a in self.blocks.items():
                for j, b in by_row.get(k, ()):
                    out[i, j] = out[i, j] + a @ b if (i, j) in out else a @ b
            return BlockOperator._of(self.rows, other.cols, out,
                                     max(self.lead, other.lead, key=len))
        x = np.asarray(other)
        rs, cs = block_slices(self.rows), block_slices(self.cols)
        lead = max(self.lead, x.shape[:-2], key=len)
        out = np.zeros(lead + (sum(self.rows), x.shape[-1]), dtype=complex)
        for (i, j), b in self.blocks.items():
            out[..., rs[i], :] += b @ x[..., cs[j], :]
        return out

    def components(self) -> list:
        """The connected components of the block pattern, as (row blocks,
        column blocks) pairs, each sorted, ordered by their first row block."""
        return _plan(self.rows, self.cols, frozenset(self.blocks))[0]

    def component_blocks(self) -> list:
        """The dense matrix of each component, rows and columns in block
        order."""
        return _component_stacks((self,), pad=False)[0]


def as_blocks(x) -> BlockOperator:
    """A block operator as given; a plain matrix as the one-block operator."""
    if isinstance(x, BlockOperator):
        return x
    x = as_matrix(x)
    return BlockOperator((x.shape[0],), (x.shape[1],), {(0, 0): x})


@functools.lru_cache(maxsize=64)
def _plan(rows: tuple, cols: tuple, keys: frozenset) -> tuple:
    """The components of the pattern ``keys`` (see
    :meth:`BlockOperator.components`), each component's shape, and where
    each block sits in its component: key -> (c, row slice, column slice)."""
    # union-find over row nodes ("r", i) and column nodes ("c", j)
    parent: dict = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i, j in keys:
        a, b = find(("r", i)), find(("c", j))
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict = {}
    for node in list(parent):
        groups.setdefault(find(node), ([], []))[node[0] == "c"].append(node[1])
    parts = sorted((sorted(r), sorted(c)) for r, c in groups.values())
    at_row, at_col, shapes = {}, {}, []
    for c, (rs, cs) in enumerate(parts):
        shape = []
        for at, idx, dims in ((at_row, rs, rows), (at_col, cs, cols)):
            local = block_slices([dims[i] for i in idx])
            at.update((i, (c, sl)) for i, sl in zip(idx, local))
            shape.append(local[-1].stop)
        shapes.append(tuple(shape))
    place = {(i, j): (at_row[i][0], at_row[i][1], at_col[j][1]) for i, j in keys}
    return parts, shapes, place


def _block_entries(ops) -> list:
    """The stored blocks of one block operator, or of a pair of one layout
    over the union of their patterns, as one (1, m, 1, E) array each: per
    slice the entries of every block side by side, a block missing from one
    operand of a pair as zeros there.  The zero blocks add nothing to a sum
    of squares or an entry maximum, so the slice values of
    :func:`_slice_scale` and :func:`_slice_frobenius` are those of the
    padded component stacks up to summation order."""
    first, last = ops[0], ops[-1]
    if not isinstance(last, BlockOperator) or (first.rows, first.cols) != (last.rows, last.cols):
        raise DimensionMismatch("block layouts differ")
    lead = max(first.lead, last.lead, key=len) or (1,)
    keys = sorted(first.blocks.keys() | last.blocks.keys())
    out = []
    for op in ops:
        parts = []
        for i, j in keys:
            b = op.blocks.get((i, j))
            shape = lead + (op.rows[i] * op.cols[j],)
            if b is None:
                b = np.zeros(shape, dtype=complex)
            elif b.size != math.prod(shape):     # one matrix in a stacked operator
                b = np.broadcast_to(b, lead + b.shape[-2:])
            parts.append(b.reshape(shape))
        flat = np.concatenate(parts, axis=-1) if parts else np.zeros(lead + (0,), dtype=complex)
        out.append(flat[None, :, None, :])
    return out


def _component_stacks(ops, pad: bool = True, slices=None) -> list:
    """One block operator or a pair of one layout, each split along the
    components of their joint pattern.  With ``pad`` each becomes a (K, m, r, s) array,
    component c zero-padded to the largest component's shape (which changes
    none of its norms or entry maxima), of the stack slices selected by the
    boolean mask ``slices`` (all when None); without it, a list of the
    components' dense matrices.
    """
    first, last = ops[0], ops[-1]
    if not isinstance(last, BlockOperator) or (first.rows, first.cols) != (last.rows, last.cols):
        raise DimensionMismatch("block layouts differ")
    parts, shapes, place = _plan(first.rows, first.cols,
                                 frozenset(first.blocks.keys() | last.blocks.keys()))
    lead = max(first.lead, last.lead, key=len)
    if slices is not None:
        lead = (int(np.count_nonzero(slices)),)
    if pad:
        shape = tuple(max((sh[n] for sh in shapes), default=0) for n in (0, 1))
        out = [np.zeros((len(parts),) + (lead or (1,)) + shape, dtype=complex) for _ in ops]
    else:
        out = [[np.zeros(lead + sh, dtype=complex) for sh in shapes] for _ in ops]
    for st, op in zip(out, ops):
        for key, b in op.blocks.items():
            c, rs, cs = place[key]
            st[c][..., rs, cs] = b if slices is None or b.ndim == 2 else b[slices]
    return out


def block_diag(mats) -> np.ndarray:
    """Direct sum over the last two axes of complex matrices or equal-length
    stacks of them (zero-size blocks allowed)."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    rows = block_slices([m.shape[-2] for m in mats])
    cols = block_slices([m.shape[-1] for m in mats])
    out = np.zeros(mats[0].shape[:-2] + (rows[-1].stop, cols[-1].stop), dtype=complex)
    for m, r, c in zip(mats, rows, cols):
        out[..., r, c] = m
    return out
