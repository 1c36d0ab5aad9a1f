"""Covariant pairs, defect operators and the one-rung extension step.

A covariant pair is a representation ``pi`` together with a contraction
``T`` intertwining ``pi o alpha`` and ``pi``.  This module provides the
isometric extension step (a larger representation ``rho`` and an isometry
``W`` with ``W* rho(alpha(a)) W = pi(a)``), in two strategies:

* ``adapted``: the minimal Stinespring dilation of ``pi o tau`` for a
  chosen transfer operator ``tau`` (unique up to unitary equivalence);
* ``gns``: a cyclic decomposition of ``pi`` followed by one GNS
  construction per summand, with the state extension induced by a chosen
  conditional expectation onto the range of the dynamics.

Both strategies build their dilations with the Choi/Kraus kernel of
:mod:`covdilate.cpmaps`, and every step's representation is one
:class:`~covdilate.cpmaps.KrausRep` (the GNS summands merged into one), so
the defect spans, the restrictions to them and the step intertwiners are
computed in its multiplicity spaces.  The adapted step of a ``KrausRep``
(every chain level above the first, and level 0 on the tower, whose
``standard_rep`` is one) is composed from the Kraus form of the transfer
(:class:`~covdilate.cpmaps.KrausTransfer`) instead of the Choi blocks of
rep o tau; the system builds that form (``transfer_kraus``), the finite
backend from the Choi blocks of tau and the tower in closed form from the
density of its state.  Both backends (finite-dimensional
algebras and the graded tensor tower) drive the same engine through a small
system protocol: ``basis(depth)``, ``basis_size(depth)``, ``alpha_coords``,
``coord_blocks`` and friends.  The engine evaluates on coordinate rows: a
chunk of algebra elements is an (m, n) array at one basis depth, and a chunk
of the basis is a row slice of the identity.  Transfer maps act on such
chunks too (``tau.rows(coords, depth)``, the rows of the values and their
depth).  Finite systems ignore every ``depth`` argument; the tower consumes
one depth unit per application of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .algebra import (ChunkRep, FiniteDimCStarAlgebra, Representation, StarHom,
                      cyclic_summands, unit_residual)
from .cpmaps import (CPMap, KrausDilation, KrausRep, KrausTransfer,
                     idempotency_residual, kraus_dilation, kraus_direct_sum, kraus_span,
                     range_defect, transfer_kraus, unit_image_chois,
                     verify_completely_positive, verify_transfer)
from .errors import (DepthExceeded, InvarianceViolation, NotContraction,
                     NotPositive, NullCyclicVector, RangeNotInImage, ShapeMismatch,
                     StrategyInvalid)
from .numerics import (DEFAULT_TOL, BlockOperator, Leaf, Tolerance, UpperBound, as_matrix,
                       basis_sweep, block_diag, block_slices, certified, commutant_bound,
                       hermitian_root, intertwiner_bound, kron_eye, ranked_svds, read_only,
                       residual, spectral_norm, stack_images, svd_pinv)
from .report import ClauseReport, clause


# ---------------------------------------------------------------------------
# system protocol: the finite-dimensional backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteDimSystem:
    """A finite-dimensional algebra together with its dynamics."""

    algebra: FiniteDimCStarAlgebra
    alpha: StarHom

    is_tower = False
    d_max = None

    def __post_init__(self):
        if self.alpha.source.block_sizes != self.algebra.block_sizes \
                or self.alpha.target.block_sizes != self.algebra.block_sizes:
            raise ShapeMismatch("alpha must be an endomorphism of the algebra")

    def basis(self, depth=None):
        return self.algebra.basis()

    def basis_size(self, depth=None) -> int:
        return self.algebra.dim

    def unit(self, depth=None):
        return self.algebra.unit()

    def algebra_view(self, depth=None) -> FiniteDimCStarAlgebra:
        return self.algebra

    def alpha_coords(self, coords, depth=None, n: int = 1):
        """alpha^n on coordinate rows, with the depth of the result (None)."""
        for _ in range(n):
            coords = coords @ self.alpha.matrix.T
        return coords, None

    def shift_factors(self, rep, depth=None, n: int = 1):
        """None: alpha is any endomorphism, with no factor form of
        rep(alpha^n(A)) to read off, so the invariance, covariance and
        intertwining clauses sweep (``TowerSystem.shift_factors``)."""
        return None

    def alpha_apply(self, x, n: int = 1):
        coords, _ = self.alpha_coords(x.coords[None], None, n)
        return self.algebra.from_coords(coords[0])

    def coords(self, x, depth=None) -> np.ndarray:
        return x.coords

    def element_from_coords(self, coords, depth=None):
        return self.algebra.from_coords(coords)

    def coord_blocks(self, coords, depth=None, at=None) -> tuple:
        """Coordinate rows as one (m, n_b, n_b) stack per block."""
        return self.algebra.split(coords)

    def stinespring_depth(self, pair_depth):
        return None

    def solve_alpha(self, y, tol: Tolerance = DEFAULT_TOL):
        """alpha^{-1} on the range of alpha, by least squares with residual check."""
        (sol,), _ = self.solve_alpha_rows(self.coords(y)[None], None, tol)
        return self.element_from_coords(sol, None)

    def solve_alpha_rows(self, coords, depth=None, tol: Tolerance = DEFAULT_TOL):
        """alpha^{-1} on coordinate rows, by one least-squares solve with one
        right-hand side per row; each row is gated on its own residual."""
        m = self.alpha.matrix
        rhs = np.asarray(coords, dtype=complex).T
        sol, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
        off = np.linalg.norm(m @ sol - rhs, axis=0)
        outside = off > tol.residual_tol * (1.0 + np.linalg.norm(rhs, axis=0))
        if outside.any():
            raise RangeNotInImage(f"element misses the image of alpha by "
                                  f"{off[np.argmax(outside)]:.3e}")
        return sol.T, None

    def transfer_check_data(self, tau, depth):
        if not isinstance(tau, CPMap):
            raise StrategyInvalid("finite backend expects the transfer as a CPMap")
        return tau, self.alpha

    def expectation_check_data(self, e, depth):
        if not isinstance(e, CPMap):
            raise StrategyInvalid("finite backend expects the expectation as a CPMap")
        return e, self.alpha

    def transfer_kraus(self, tau, depth, at, tol: Tolerance = DEFAULT_TOL) -> KrausTransfer:
        """The Kraus form of tau, by the Choi route
        (:func:`~covdilate.cpmaps.transfer_kraus`)."""
        return transfer_kraus(self, tau, depth, at, tol)


# ---------------------------------------------------------------------------
# representation combinators
#
# Every representation offers ``dim``, ``max_depth`` (the deepest basis
# depth it accepts, None when unbounded) and ``images(coords, depth)``, the
# (m, dim, dim) stack of its values on m coordinate rows at one basis depth;
# rep(x) is the one-row case (:class:`~covdilate.algebra.ChunkRep`).
# Combinators act on whole stacks, so a chunk of the basis is evaluated by
# one batched linear map per layer instead of one call per element.
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RestrictedRep(ChunkRep):
    inner: object
    basis: np.ndarray  # ambient_dim x dim, orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def max_depth(self):
        return self.inner.max_depth

    def images(self, coords, depth) -> np.ndarray:
        return self.basis.conj().T @ self.inner.images(coords, depth) @ self.basis


@dataclass(eq=False)
class ShiftedRep(ChunkRep):
    """x -> inner(alpha^n(x)); consumes n depth units on the tower."""

    inner: object
    system: object
    shifts: int

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def max_depth(self):
        md = self.inner.max_depth
        return None if md is None else md - self.shifts

    def images(self, coords, depth) -> np.ndarray:
        return self.inner.images(*self.system.alpha_coords(coords, depth, self.shifts))


@dataclass(eq=False)
class DirectSumRep(ChunkRep):
    """The direct sum of ``parts``; its images are block-diagonal
    :class:`~covdilate.numerics.BlockOperator` stacks, one diagonal block per
    part (a part whose images are block operators themselves enters as its
    dense stack)."""

    parts: tuple

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @property
    def max_depth(self):
        depths = [p.max_depth for p in self.parts if p.max_depth is not None]
        return min(depths) if depths else None

    def images(self, coords, depth) -> BlockOperator:
        return BlockOperator.diagonal([np.asarray(p.images(coords, depth))
                                       for p in self.parts])

    def act(self, coords, depth, frame: BlockOperator, right: bool = False) -> BlockOperator:
        """rho(a) X, or X rho(a) with ``right``, for a block operator X whose
        row (column) blocks are the parts: the stacked block operator on X's
        pattern.  A :class:`~covdilate.cpmaps.KrausRep` part acts through
        its frame kernel (:meth:`~covdilate.cpmaps.KrausRep.act`) and never
        forms its images; any other part's images are evaluated once."""
        dense = {}

        def apply(k, x):
            part = self.parts[k]
            if isinstance(part, KrausRep):
                return part.act(coords, depth, x, right)
            if k not in dense:
                dense[k] = np.asarray(part.images(coords, depth))
            return x @ dense[k] if right else dense[k] @ x

        return BlockOperator._of(frame.rows, frame.cols,
                                 {(i, j): apply(j if right else i, x)
                                  for (i, j), x in frame.blocks.items()}, (len(coords),))


@dataclass(eq=False)
class QuotientRep(ChunkRep):
    """Left multiplication on a Gram-form quotient of (algebra basis) x C^h.

    Reference route only: the extension steps build :class:`KrausRep`, and
    the differential tests certify the two unitarily equivalent.  Left
    multiplication by x on coordinates is directsum_b x_b (x) I_{n_b}, built
    from ``system.coord_blocks``.
    """

    system: object
    depth: Optional[int]      # truncation depth of the underlying algebra (None: finite)
    n: int                    # algebra dimension at that depth
    h: int                    # inner space dimension
    cmap: np.ndarray          # rank x (n h)
    lift: np.ndarray          # (n h) x rank

    @property
    def dim(self) -> int:
        return self.cmap.shape[0]

    @property
    def max_depth(self):
        return self.depth

    def images(self, coords, depth) -> np.ndarray:
        blocks = self.system.coord_blocks(coords, depth, self.depth)
        left = block_diag([kron_eye(b, b.shape[-1]) for b in blocks])
        out = left @ self.lift.reshape(self.n, self.h * self.dim)
        return self.cmap @ out.reshape(len(coords), self.n * self.h, self.dim)

    # in the class namespace, where perfbench/tracer.py looks it up by name
    __call__ = ChunkRep.__call__


def shifted_restrictions(system, parts, bases, shifts: int) -> list:
    """The parts of a direct sum, each shifted ``shifts`` times and
    restricted to the columns of its basis: the summands of the direct sum
    restricted to a block-diagonal subspace."""
    return [RestrictedRep(ShiftedRep(p, system, shifts), b) for p, b in zip(parts, bases)]


def usable_depth(system, reps, shifts: int, requested: Optional[int]) -> Optional[int]:
    """Largest basis depth at which each rep accepts ``shifts`` dynamics steps."""
    if not system.is_tower:
        return None
    caps = [system.d_max - shifts]
    for rep in reps:
        if rep.max_depth is not None:
            caps.append(rep.max_depth - shifts)
    d = min(caps)
    if requested is not None:
        d = min(d, requested)
    if d < 0:
        raise DepthExceeded(f"no admissible basis depth (cap {d})")
    return d


def factor_form(system, rep, depth, shifts: int = 0) -> Optional[tuple]:
    """The factor form of a -> rep(alpha^shifts(a)) for a at ``depth``: the
    :class:`~covdilate.numerics.Leaf` s of rep(alpha^shifts(a)) = B* F(a) B
    (see :func:`~covdilate.numerics.intertwiner_bound`), or None when a part
    has none.  A rep the system reads (``system.shift_factors``: a
    ``KrausRep`` on the tower) is one leaf with B = I; a
    ``ShiftedRep`` adds its shifts, a ``RestrictedRep`` composes B with its
    basis, and a ``DirectSumRep`` sets its parts' leaves side by side."""
    if isinstance(rep, ShiftedRep):
        return factor_form(system, rep.inner, depth, shifts + rep.shifts)
    if isinstance(rep, RestrictedRep):
        inner = factor_form(system, rep.inner, depth, shifts)
        if inner is None:
            return None
        isos = [rep.basis[leaf.span] if leaf.iso is None else leaf.iso @ rep.basis[leaf.span]
                for leaf in inner]
        gram = sum(iso.conj().T @ iso for iso in isos)
        defect = float(np.linalg.norm(gram - np.eye(rep.dim)))
        return tuple(leaf._replace(span=slice(0, rep.dim), iso=iso, defect=defect)
                     for leaf, iso in zip(inner, isos))
    if isinstance(rep, DirectSumRep):
        leaves = []
        for part, at in zip(rep.parts, block_slices([p.dim for p in rep.parts])):
            form = factor_form(system, part, depth, shifts)
            if form is None:
                return None
            leaves += [leaf._replace(span=slice(at.start + leaf.span.start,
                                                at.start + leaf.span.stop)) for leaf in form]
        return tuple(leaves)
    factors = system.shift_factors(rep, depth, shifts)
    return None if factors is None else (Leaf(*factors, slice(0, rep.dim)),)


class _ChunkTerms:
    """The one rule for the terms of clauses over the basis at ``depth``:
    :meth:`side` gives rep(alpha^s(a)) X, or X rep(alpha^s(a)) with
    ``right``, through the frame kernel ``act`` of a
    :class:`~covdilate.cpmaps.KrausRep` on a dense X or of a
    :class:`DirectSumRep` whose parts are the row (column) blocks of a block
    X; any other rep's images are evaluated once per chunk for each (rep,
    s), shared by every clause of one :func:`~covdilate.numerics.basis_sweep`."""

    def __init__(self, system, depth):
        self.system, self.depth = system, depth
        self.held = {}  # what a chunk holds, in order: rep(alpha^s(a)), or alpha^s(a) for rep None

    def _slot(self, rep, s):
        return self.held.setdefault((id(rep), s), (len(self.held), rep, s))[0]

    def side(self, x, rep, s, right=False):
        blocks = isinstance(x, BlockOperator)
        if isinstance(rep, DirectSumRep) and blocks \
                and tuple(p.dim for p in rep.parts) == (x.cols if right else x.rows) \
                or isinstance(rep, KrausRep) and not blocks:
            k = self._slot(None, s)
            return lambda imgs: rep.act(*imgs[k], x, right)
        k = self._slot(rep, s)
        img = (lambda imgs: imgs[k]) if blocks else (lambda imgs: np.asarray(imgs[k]))
        return (lambda imgs: x @ img(imgs)) if right else (lambda imgs: img(imgs) @ x)

    def _images(self, c):
        rows = {s: self.system.alpha_coords(c, self.depth, s) if s else (c, self.depth)
                for _, _, s in self.held.values()}
        return [rows[s] if rep is None else rep.images(*rows[s])
                for _, rep, s in self.held.values()]

    def sweep(self, values, clauses, threshold) -> list:
        # each None of ``values``, in order, takes the value of the next clause
        if not clauses:
            return values
        swept = iter(basis_sweep(self.system.basis_size(self.depth), self._images, *clauses,
                                 threshold=threshold))
        return [next(swept) if value is None else value for value in values]


def relation_values(system, depth, threshold: float, *relations) -> list:
    """The clauses X sigma(alpha^s(a)) = tau(a) X over the basis at
    ``depth``, one per relation ``(X, tau, sigma, s)``, decided against
    ``threshold``: the one place such a clause is valued.

    When tau and sigma have factor forms (for a block X, direct sums whose
    parts are its row and column blocks), the value is
    :func:`~covdilate.numerics.intertwiner_bound`, if at or below the
    threshold: it bounds the absolute norm of every matrix unit's term, so
    also the relative value.  The rest are valued residual(X
    sigma(alpha^s(a)), tau(a) X) in one sweep (:class:`_ChunkTerms`)."""
    values = []
    for x, tau, sigma, s in relations:
        if isinstance(x, BlockOperator):
            rows = [factor_form(system, p, depth) for p in tau.parts]
            cols = [factor_form(system, p, depth, s) for p in sigma.parts]
            forms = rows + cols
        else:
            rows, cols = factor_form(system, tau, depth), factor_form(system, sigma, depth, s)
            forms = [rows, cols]
        bound = None if any(f is None for f in forms) else intertwiner_bound(x, rows, cols)
        values.append(UpperBound(bound) if bound is not None and bound <= threshold else None)
    terms = _ChunkTerms(system, depth)
    clauses = [lambda *imgs, lhs=terms.side(x, sigma, s, True), rhs=terms.side(x, tau, 0):
               (lhs(imgs), rhs(imgs))
               for (x, tau, sigma, s), value in zip(relations, values) if value is None]
    return terms.sweep(values, clauses, threshold)


def invariance_values(system, depth, threshold: Optional[float], *invariances) -> list:
    """max over the basis at ``depth`` of ||(I - B B*) g(alpha^s(a)) B||, one
    per invariance ``(B, g, s)``, decided against ``threshold`` when one is
    given: the one place an invariance clause is valued.  B has orthonormal
    columns (one block), or is block-diagonal over the parts of the
    :class:`DirectSumRep` g.

    * A block that B fills, or leaves empty, drops out: it is invariant
      outright.  With no block left the value is 0.0.
    * With a threshold, when every part left has a factor form with no lift
      after s shifts (:func:`factor_form`; a
      :class:`~covdilate.cpmaps.KrausRep` on its own algebra with no shift
      gives directsum_b 1 x M_(n_b) x 1_(r_b), on either backend), the value
      is the largest :func:`~covdilate.numerics.commutant_bound` over the
      blocks left, if at or below the threshold.
    * Every other invariance is swept as ||Y - B (B* Y)|| for Y =
      g(alpha^s(a)) B, no complement built, in one sweep (:class:`_ChunkTerms`).
    """
    terms = _ChunkTerms(system, depth)
    values, clauses = [], []
    for b, g, s in invariances:
        blocks = isinstance(b, BlockOperator)
        mats = [b.blocks.get((i, i), np.zeros(rc, dtype=complex))
                for i, rc in enumerate(zip(b.rows, b.cols))] if blocks else [b]
        parts = g.parts if blocks else [g]
        proper = [i for i, m in enumerate(mats) if 0 < m.shape[1] < m.shape[0]]
        value = None if proper else 0.0
        if proper and threshold is not None:
            forms = [_invariance_form(system, parts[i], depth, s) for i in proper]
            if all(f is not None and all(leaf.iso is None for leaf in f) for f in forms):
                bound = max(commutant_bound(mats[i], f) for i, f in zip(proper, forms))
                value = UpperBound(bound) if bound <= threshold else None
        if value is None:
            if blocks:
                b = BlockOperator.diagonal([m if i in proper else m[:, :0]
                                            for i, m in enumerate(mats)])
            b_h = b.adjoint() if blocks else b.conj().T

            def clause(*imgs, y=terms.side(b, g, s), b=b, b_h=b_h):
                y = y(imgs)
                return y - b @ (b_h @ y)
            clauses.append(clause)
        values.append(value)
    return terms.sweep(values, clauses, threshold)


def _invariance_form(system, rep, depth, s):
    if isinstance(rep, KrausRep) and not s and depth == rep.depth:
        return tuple(Leaf(1, n, r, sl, block=k) for k, (n, r, sl) in enumerate(rep.layout))
    return factor_form(system, rep, depth, s)


def basis_images(system, rep, depth, right=None) -> np.ndarray:
    """rep on the basis at ``depth``: the (N, dim, dim) stack, or with
    ``right`` the spanning set [rep(b_1) right, ..., rep(b_N) right]."""
    return stack_images(system.basis_size(depth), lambda c: rep.images(c, depth), right)


def stage_view(system, rep, depth) -> Representation:
    """rep on the algebra at ``depth`` as a finite
    :class:`~covdilate.algebra.Representation`, for the standard checks."""
    return Representation.from_images(system.algebra_view(depth),
                                      basis_images(system, rep, depth))


def span_frame(system, rep, depth, right) -> tuple:
    """The spanning set [rep(b_1) right, ..., rep(b_N) right] over the basis
    at ``depth`` as ``(frames, sizes)``: directsum_b I_{n_b} x Y_b.

    A :class:`~covdilate.cpmaps.KrausRep` on the basis of its own algebra
    (every extension step's representation) gives its Kraus frames (see its
    docstring), with no image evaluated; any other representation gives its
    spanning set as one frame of size one.
    """
    if isinstance(rep, KrausRep) and depth == rep.depth:
        return rep.frames(right), rep.block_sizes
    return [basis_images(system, rep, depth, right)], (1,)


def frame_rank(frame, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a spanning set given by :func:`span_frame`, one singular-value
    solve per frame."""
    frames, sizes = frame
    return sum(n * len(s) for n, (_, s, _) in
               zip(sizes, ranked_svds(frames, tol, compute_uv=False)))


def transfer_images(system, rep, tau, depth) -> np.ndarray:
    """rep(tau(b)) for every basis element b at ``depth``, as one stack.

    The transfer acts on coordinate rows, one chunk at a time:
    ``tau.rows(coords, depth)`` returns the rows of the values and their depth.
    """
    return stack_images(system.basis_size(depth), lambda c: rep.images(*tau.rows(c, depth)))


def invariance_residual(system, depth, rep, basis, threshold: Optional[float] = None) -> float:
    """max over the basis at ``depth`` of ||(I - B B*) rep(a) B||, B
    orthonormal columns: the one-invariance case of
    :func:`invariance_values`."""
    (value,) = invariance_values(system, depth, threshold, (basis, rep, 0))
    return value


def haar_unitary(n: int, rng) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# covariant pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CovariantPair:
    """A representation plus a contraction intertwining it with the dynamics.

    ``depth`` is the basis depth used for verification on the tower backend
    (ignored by finite systems); the representation must accept one more
    dynamics step than that.  The pair holds a read-only copy of the
    contraction (of each stored block of a block operator), so that it can
    hold its covariance certificate (:func:`verify_covariance`); the
    caller's array stays its own.
    """

    system: object
    rep: object
    contraction: np.ndarray       # or, for an assembled chain, its BlockOperator V
    depth: Optional[int] = None

    def __post_init__(self):
        t = self.contraction if isinstance(self.contraction, BlockOperator) \
            else as_matrix(self.contraction)
        if t.shape != (self.rep.dim, self.rep.dim):
            raise ShapeMismatch(f"contraction of shape {t.shape} on a space of "
                                f"dimension {self.rep.dim}")
        t = BlockOperator(t.rows, t.cols, {ij: read_only(b) for ij, b in t.blocks.items()}) \
            if isinstance(t, BlockOperator) else read_only(t)
        object.__setattr__(self, "contraction", t)

    @property
    def space_dim(self) -> int:
        return self.rep.dim

    def norm(self) -> float:
        return spectral_norm(self.contraction)


def covariant_pair(system, rep, contraction, depth=None,
                   tol: Tolerance = DEFAULT_TOL) -> CovariantPair:
    """Checked constructor: rejects non-contractions, never renormalizes."""
    pair = CovariantPair(system, rep, contraction, depth)
    if pair.norm() > 1.0 + tol.rank_eps:
        raise NotContraction(f"||T|| = {pair.norm():.12f} exceeds 1")
    if system.is_tower:
        if depth is None:
            raise DepthExceeded("tower pairs need an explicit check depth")
        if depth + 1 > system.d_max:
            raise DepthExceeded(f"depth {depth}+1 exceeds d_max {system.d_max}")
        if rep.max_depth is not None and depth + 1 > rep.max_depth:
            raise DepthExceeded("representation too shallow for this check depth")
    return pair


def verify_covariance(pair: CovariantPair, tol: Tolerance = DEFAULT_TOL) -> float:
    """max over basis a of residual(T pi(alpha(a)), pi(a) T), computed once
    per tolerance and held by the pair (:func:`~covdilate.numerics.certified`).

    Valued by :func:`relation_values` (T with sigma = pi o alpha and tau =
    pi): the projection bound when pi has a factor form and the bound is at
    or below the threshold, else the basis sweep."""
    if pair.system.is_tower:
        if pair.depth is None or pair.depth + 1 > pair.system.d_max:
            raise DepthExceeded("covariance check needs depth + 1 <= d_max")
    return certified(pair, ("covariance", tol), lambda: _covariance(pair, tol))


def _covariance(pair: CovariantPair, tol: Tolerance) -> float:
    system, rep, t = pair.system, pair.rep, pair.contraction
    d = usable_depth(system, [rep], 1, pair.depth)
    (worst,) = relation_values(system, d, tol.residual_tol, (t, rep, rep, 1))
    return worst


@dataclass(frozen=True)
class DefectData:
    delta: np.ndarray        # (I - T*T)^(1/2)
    delta_star: np.ndarray   # (I - TT*)^(1/2)
    pi_commutation: float        # max_a ||[delta_star, pi(a)]||
    pi_alpha_commutation: float  # max_a ||[delta, pi(alpha(a))]||


def defect_roots(pair: CovariantPair, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The defect operators (I - T*T)^(1/2) and (I - TT*)^(1/2) of a contraction.

    Both come from one SVD T = U diag(sigma) V*: I - T*T = V diag(1 -
    sigma^2) V* and I - TT* = U diag(1 - sigma^2) U*, so the roots are V
    diag(s) V* and U diag(s) U* with the values s of :func:`defect_values`,
    and ||T|| = sigma_max gates the contraction (:func:`contraction_svds`).
    For T = 0 (every chain level above the first) both are returned as
    exact identities, without an SVD.
    """
    t = pair.contraction
    if not t.any():
        eye = np.eye(pair.space_dim, dtype=complex)
        return eye, eye.copy()
    ((u, sigma, vh),) = contraction_svds([t], tol)
    s = defect_values(sigma, vh.shape[0], tol)
    return hermitian_root(vh.conj().T, s), hermitian_root(u, s)


def contraction_svds(mats, tol: Tolerance = DEFAULT_TOL) -> list:
    """One SVD (u, sigma, vh) per matrix, ``vh`` square (full when the
    matrix is wide), after checking that the direct sum of the matrices is
    a contraction: its norm is the largest sigma over all of them, and one
    above 1 + rank_eps raises :class:`NotContraction`."""
    svds = [np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1]) for m in mats]
    norm = max((float(s[0]) for _, s, _ in svds if s.size), default=0.0)
    if norm > 1.0 + tol.rank_eps:
        raise NotContraction(f"||T|| = {norm:.12f} exceeds 1")
    return svds


def defect_values(sigma: np.ndarray, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The values of (I - T*T)^(1/2) on the n columns of V for T = U
    diag(sigma) V* with n columns: ((1 - sigma)(1 + sigma))^(1/2) on the
    first len(sigma), then 1 on the rest (T's kernel).  Each (1 - sigma)(1 +
    sigma), which does not cancel as 1 - sigma^2 does, is clamped at
    :func:`defect_floor` as :func:`~covdilate.numerics.psd_sqrt` clamps an
    eigenvalue before its root: within the floor of zero it is zero, and
    below minus the floor it raises :class:`NotPositive`."""
    lam = (1.0 - sigma) * (1.0 + sigma)
    floor = defect_floor(tol).psd_floor
    if lam.size and lam.min() < -floor:
        raise NotPositive(f"eigenvalue {lam.min():.3e} below -psd_floor")
    lam = np.where(np.abs(lam) <= floor, 0.0, np.clip(lam, 0.0, None))
    return np.concatenate([np.sqrt(lam), np.ones(n - lam.size)])


def defect_floor(tol: Tolerance) -> Tolerance:
    """The tolerance a defect root is taken at: ||T|| may sit within
    rank_eps above 1, pushing eigenvalues of the defect slightly below zero,
    so the clamp floor is widened accordingly."""
    return Tolerance(tol.rank_eps, tol.residual_tol, max(tol.psd_floor, 4.0 * tol.rank_eps))


def defect_operators(pair: CovariantPair, tol: Tolerance = DEFAULT_TOL) -> DefectData:
    """Defect operators of T and T*, with their commutation residuals.

    Covariance makes ``delta_star`` commute with the representation and
    ``delta`` with its composition with the dynamics; both facts are
    measured rather than assumed.  Both commutators (sigma = tau = pi, and
    sigma = tau = pi o alpha) are valued by one :func:`relation_values`
    call, so those without a bound share one sweep.
    """
    delta, delta_star = defect_roots(pair, tol)
    system, rep = pair.system, pair.rep
    d = usable_depth(system, [rep], 1, pair.depth)
    shifted = ShiftedRep(rep, system, 1)
    comm, comm_alpha = relation_values(system, d, tol.residual_tol,
                                       (delta_star, rep, rep, 0),
                                       (delta, shifted, shifted, 0))
    return DefectData(delta, delta_star, comm, comm_alpha)


# ---------------------------------------------------------------------------
# extension strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedStrategy:
    """Extend via the minimal Stinespring dilation of pi o tau."""

    transfer: Callable
    kind = "adapted"


@dataclass(frozen=True)
class GnsStrategy:
    """Extend via cyclic decomposition and per-summand GNS, with the state
    extension omega = omega0 o E for a chosen conditional expectation E."""

    expectation: Callable
    kind = "gns"


@dataclass(frozen=True, eq=False)
class RangeInverse:
    """alpha^{-1} o E: the dynamics inverted on the range of an expectation,
    with the system's residual gate on every value."""

    system: object
    expectation: Callable
    tol: Tolerance

    def __call__(self, x):
        return self.system.solve_alpha(self.expectation(x), self.tol)

    def rows(self, coords, depth):
        return self.system.solve_alpha_rows(*self.expectation.rows(coords, depth),
                                            self.tol)


def resolve_transfer(system, strategy, tol: Tolerance = DEFAULT_TOL) -> Callable:
    """The transfer operator the strategy effectively uses.

    For the GNS strategy this inverts the dynamics on the range of the
    expectation (alpha^{-1} o E), by least squares with a residual gate.
    """
    if isinstance(strategy, AdaptedStrategy):
        return strategy.transfer
    if isinstance(strategy, GnsStrategy):
        return RangeInverse(system, strategy.expectation, tol)
    raise StrategyInvalid(f"unknown strategy {strategy!r}")


def verify_strategy(system, strategy, depth, tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    """Gate the strategy data before any construction uses it.

    The report is computed once per (system, depth, tolerance) and held by
    the strategy (:func:`~covdilate.numerics.certified`); a failing one
    raises and is not held, and each caller gets its own copy of the held
    clause list.  The transfer's and the expectation's coordinate matrices
    are read-only (``CPMap``, ``TowerTransfer``, ``TowerExpectation``)."""
    if not isinstance(strategy, (AdaptedStrategy, GnsStrategy)):
        raise StrategyInvalid(f"unknown strategy {strategy!r}")
    held = certified(strategy, ("strategy", system, depth, tol),
                     lambda: _strategy_report(system, strategy, depth, tol))
    return ClauseReport(list(held.clauses))


def _strategy_report(system, strategy, depth, tol: Tolerance) -> ClauseReport:
    rep = ClauseReport()
    if isinstance(strategy, AdaptedStrategy):
        tau_cp, alpha_hom = system.transfer_check_data(strategy.transfer, depth)
        tr = verify_transfer(tau_cp, alpha_hom, tol)
        rep.extend(tr.clauses())
        if not rep.passed:
            raise StrategyInvalid("transfer operator fails its checks")
        return rep
    e_cp, alpha_hom = system.expectation_check_data(strategy.expectation, depth)
    cp = verify_completely_positive(e_cp, tol)
    off = range_defect(alpha_hom, e_cp.matrix, tol, threshold=tol.residual_tol)
    rep.add(clause("expectation/idempotent", "E(E(a)) = E(a)",
                   idempotency_residual(e_cp, tol.residual_tol), tol.residual_tol))
    rep.add(clause("expectation/unital", "E(1) = 1",
                   unit_residual(e_cp, tol.residual_tol), tol.residual_tol))
    rep.add(clause("expectation/completely-positive", "min eig Choi(E) >= 0",
                   max(0.0, -cp.min_eig), tol.psd_floor))
    rep.add(clause("expectation/range", "ran E inside ran alpha", off, tol.residual_tol))
    if not rep.passed:
        raise StrategyInvalid("conditional expectation fails its checks")
    return rep


# ---------------------------------------------------------------------------
# the extension step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HBReport:
    extension_residual: float      # max_a ||W* rho(alpha(a)) W - pi(a)||
    isometry_residual: float       # ||W* W - I||
    commutant_residual: float      # max_a ||[W W*, rho(alpha(a))]||
    dilation_dim: int
    minimality_rank: int
    threshold: float

    @property
    def passed(self) -> bool:
        return (max(self.extension_residual, self.isometry_residual,
                    self.commutant_residual) <= self.threshold
                and self.minimality_rank == self.dilation_dim)


@dataclass(eq=False)
class HBExtension:
    """An isometric extension step (rho, W) for one representation.

    ``report`` (the step's clauses) is built on first read.
    """

    rho: object
    isometry: np.ndarray
    strategy_kind: str
    transfer: Callable            # tau; phi = base_rep o tau is the CP map the step dilates
    base_rep: object
    system: object
    check_depth: Optional[int]
    working_depth: Optional[int]
    tol: Tolerance

    @cached_property
    def report(self) -> HBReport:
        return _certify_step(self.system, self.base_rep, self.rho, self.isometry,
                             self.check_depth, self.tol)

    @property
    def dilation_dim(self) -> int:
        return self.rho.dim

    @property
    def space_dim(self) -> int:
        return self.isometry.shape[1]

    def phi(self, y) -> np.ndarray:
        return self.base_rep(self.transfer(y))

    def phi_units(self) -> np.ndarray:
        """phi on the basis at the working depth, as one (N, h, h) stack."""
        return transfer_images(self.system, self.base_rep, self.transfer,
                               self.working_depth)


def hb_extend(pair: CovariantPair, strategy, tol: Tolerance = DEFAULT_TOL) -> HBExtension:
    """One extension step for the pair's representation (T plays no role here)."""
    verify_strategy(pair.system, strategy, pair.system.stinespring_depth(pair.depth), tol)
    return extend_representation(pair.system, pair.rep, strategy, pair.depth, tol)


def extend_representation(system, rep, strategy, check_depth,
                          tol: Tolerance = DEFAULT_TOL) -> HBExtension:
    """Extension step for a bare representation; used level by level in chains.

    Strategy data is assumed verified by the caller (chains verify once).
    The adapted step on a :class:`~covdilate.cpmaps.KrausRep` (every chain
    level on the tower, every level above the first on the finite backend)
    is composed from the Kraus form of the transfer
    (:class:`~covdilate.cpmaps.KrausTransfer`), which the transfer holds
    once built, one per (system, working depth, stage of ``rep``,
    tolerance), so that one eigensolve serves every level of a chain.
    """
    working = system.stinespring_depth(check_depth)
    if system.is_tower and working > system.d_max:
        raise DepthExceeded(f"working depth {working} exceeds d_max {system.d_max}")
    tau = resolve_transfer(system, strategy, tol)
    if isinstance(strategy, AdaptedStrategy):
        dil = _stinespring_step(system, rep, tau, working, tol)
        rho, w = KrausRep(system, working, dil), dil.isometry
    elif isinstance(strategy, GnsStrategy):
        rho, w = _gns_step(system, rep, tau, check_depth, working, tol)
    else:
        raise StrategyInvalid(f"unknown strategy {strategy!r}")

    return HBExtension(rho, w, strategy.kind, tau, rep, system, check_depth, working, tol)


def _stinespring_step(system, rep, tau, working, tol):
    """The minimal dilation of rep o tau: composed for a KrausRep from the
    Kraus form the transfer holds (:func:`~covdilate.numerics.certified`),
    else (a finite pi with no Kraus form) from the Choi blocks of rep o tau."""
    if isinstance(rep, KrausRep):
        kraus = certified(tau, ("kraus", system, working, rep.depth, tol),
                          lambda: system.transfer_kraus(tau, working, rep.depth, tol))
        return kraus.compose(rep)
    view = system.algebra_view(working)
    phi_units = transfer_images(system, rep, tau, working)
    return kraus_dilation(view, unit_image_chois(view, phi_units, rep.dim), tol)


def _gns_step(system, rep, tau, check_depth, working, tol):
    view = system.algebra_view(working)
    images = basis_images(system, rep, check_depth)
    summands = cyclic_summands(images, rep.dim, tol)
    phi_units = transfer_images(system, rep, tau, working) if summands else None
    parts = []
    w_rows = []
    for xi, _ in summands:
        if np.linalg.norm(xi) < tol.rank_eps:
            raise NullCyclicVector("cyclic vector collapsed")
        omega_units = (phi_units @ xi) @ xi.conj()
        dil = kraus_dilation(view, unit_image_chois(view, omega_units, 1), tol)
        rho_s = KrausRep(system, working, dil)
        x1 = (images @ xi).T
        x2 = basis_images(system, ShiftedRep(rho_s, system, 1), check_depth, dil.isometry[:, :1])
        w_rows.append(x2 @ svd_pinv(*ranked_svds([x1], tol)[0]))
        parts.append(rho_s)
    w = np.vstack(w_rows) if w_rows else np.zeros((0, rep.dim), dtype=complex)
    rho = kraus_direct_sum(system, working, parts, w)
    return rho, rho.dilation.isometry


def _certify_step(system, rep, rho, w, check_depth, tol) -> HBReport:
    """The step's clauses; minimality is the rank of span rho(A) W H."""
    d = usable_depth(system, [rep, rho], 1, check_depth)
    iso = residual(w.conj().T @ w, np.eye(rep.dim))
    ww = w @ w.conj().T
    ext, comm = basis_sweep(
        system.basis_size(d),
        lambda c: (rho.images(*system.alpha_coords(c, d)), rep.images(c, d)),
        lambda ra, pa: (w.conj().T @ ra @ w, pa),
        lambda ra, pa: (ww @ ra, ra @ ww))
    rank = frame_rank(span_frame(system, rho, rho.max_depth, w), tol)
    return HBReport(float(ext), float(iso), float(comm), rho.dim, rank, tol.residual_tol)


# ---------------------------------------------------------------------------
# the two-step block construction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TwoStepBlock:
    """One block coisometric step on H + defect space, and one chain level.

    The block is M = [[T, D*], [0, 0]] on H + defect space; a one-level
    chain's ``v`` is M, and the chain's clauses certify it.
    """

    ext: HBExtension
    defect_basis: np.ndarray      # orthonormal columns inside the dilation space
    d_star: np.ndarray            # defect map back to H, in basis coordinates
    pi_hat: KrausRep              # restriction of rho to the defect space
    invariance: float             # max_a ||(I - B B*) rho(a) B|| or its commutant bound
    # (tol, delta, delta_star) for the defect decomposition, kept only for a
    # nonzero T (level 0): for T = 0 (every level above) the roots are
    # identities that defect_roots returns with no eigensolve, so no level
    # holds a pair of identity matrices
    roots: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.defect_basis.shape[1]


def two_step(pair: CovariantPair, ext: HBExtension,
             tol: Tolerance = DEFAULT_TOL, rng=None) -> TwoStepBlock:
    """Build the defect space rho(A) W Delta* H and the map D* back to H.

    The span and the restriction K = B* rho B of rho to it come from the
    Kraus form of rho (:func:`~covdilate.cpmaps.kraus_span`), and K is the
    level's ``pi_hat``.  A generator draws G = directsum_b I_{n_b} x U_b,
    one Haar U_b on U(r_b) per block of K's layout in block order, and
    moves the basis to B G*.  G is a unitary of K's commutant, so
    (B G*)* rho (B G*) = G K G* = K: ``pi_hat`` stays K, its dilation map
    becomes G B* X = (B G*)* X, and of the level only the basis and d* =
    Delta* W* B G* change.  The invariance gate values ||(I - P) rho(a) B
    G*|| for P the projection onto the span (B G* spans what B spans); the
    commutant bound of rho (directsum_b I_{n_b} x M_{r_b}) decides it,
    about 1e-16 here.
    The block keeps the defect roots and their tolerance when T is nonzero
    (level 0 of a chain), for the defect decomposition; for T = 0 they are
    exact identities.
    """
    delta, delta_star = defect_roots(pair, tol)
    w = ext.isometry
    rho = ext.rho
    basis, dil = kraus_span(rho, w @ delta_star, tol)
    pi_hat = KrausRep(pair.system, rho.depth, dil)
    if rng is not None:
        # G on the Kraus coordinates (b, p, s): U_b on the index s
        iso = dil.isometry.copy()
        dim, h = basis.shape[0], iso.shape[1]
        for n, r, s in pi_hat.layout:
            u = haar_unitary(r, rng)
            basis[:, s] = (basis[:, s].reshape(dim, n, r) @ u.conj().T).reshape(dim, n * r)
            iso[s] = np.matmul(u, iso[s].reshape(n, r, h)).reshape(n * r, h)
        pi_hat = KrausRep(pair.system, rho.depth, KrausDilation(dil.multiplicities, iso))

    inv = invariance_residual(pair.system, rho.max_depth, rho, basis, tol.residual_tol)
    if inv > tol.residual_tol:
        raise InvarianceViolation(f"defect space drifts under rho by {inv:.3e}")
    return TwoStepBlock(ext, basis, delta_star @ w.conj().T @ basis, pi_hat, inv,
                        (tol, delta, delta_star) if pair.contraction.any() else None)
