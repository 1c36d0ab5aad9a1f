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
:mod:`covdilate.cpmaps`.  Both backends (finite-dimensional algebras and the
graded tensor tower) drive the same engine through a small system protocol:
``basis(depth)``, ``alpha_apply``, ``coords``, ``blocks`` and friends.
Finite systems ignore every ``depth`` argument; the tower consumes one depth
unit per application of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (FiniteDimCStarAlgebra, StarHom, cyclic_summands,
                      unit_residual)
from .cpmaps import (CPMap, KrausRep, idempotency_residual, kraus_dilation,
                     range_defect, unit_image_chois, verify_completely_positive,
                     verify_transfer)
from .errors import (DepthExceeded, InvarianceViolation, NotContraction,
                     NullCyclicVector, RangeNotInImage, ShapeMismatch,
                     StrategyInvalid)
from .numerics import (DEFAULT_TOL, Tolerance, as_matrix, basis_sweep,
                       block_diag, orthonormal_complement, orthonormal_span,
                       psd_sqrt, residual, spectral_norm)
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

    def unit(self, depth=None):
        return self.algebra.unit()

    def algebra_view(self, depth=None) -> FiniteDimCStarAlgebra:
        return self.algebra

    def alpha_apply(self, x, n: int = 1):
        for _ in range(n):
            x = self.alpha(x)
        return x

    def coords(self, x, depth=None) -> np.ndarray:
        return x.coords

    def element_from_coords(self, coords, depth=None):
        return self.algebra.from_coords(coords)

    def blocks(self, x, depth=None) -> tuple:
        return x.blocks

    def stinespring_depth(self, pair_depth):
        return None

    def solve_alpha(self, y, tol: Tolerance = DEFAULT_TOL):
        """alpha^{-1} on the range of alpha, by least squares with residual check."""
        m = self.alpha.matrix
        rhs = self.coords(y)
        sol, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
        off = np.linalg.norm(m @ sol - rhs)
        if off > tol.residual_tol * (1.0 + np.linalg.norm(rhs)):
            raise RangeNotInImage(f"element misses the image of alpha by {off:.3e}")
        return self.element_from_coords(sol, None)

    def transfer_check_data(self, tau, depth):
        if not isinstance(tau, CPMap):
            raise StrategyInvalid("finite backend expects the transfer as a CPMap")
        return tau, self.alpha

    def expectation_check_data(self, e, depth):
        if not isinstance(e, CPMap):
            raise StrategyInvalid("finite backend expects the expectation as a CPMap")
        return e, self.alpha


# ---------------------------------------------------------------------------
# representation combinators (shared protocol: dim, max_depth, __call__)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RestrictedRep:
    inner: object
    basis: np.ndarray  # ambient_dim x dim, orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def max_depth(self):
        return self.inner.max_depth

    def __call__(self, x) -> np.ndarray:
        return self.basis.conj().T @ self.inner(x) @ self.basis


@dataclass(eq=False)
class ShiftedRep:
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

    def __call__(self, x) -> np.ndarray:
        return self.inner(self.system.alpha_apply(x, self.shifts))


@dataclass(eq=False)
class DirectSumRep:
    parts: tuple

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @property
    def max_depth(self):
        depths = [p.max_depth for p in self.parts if p.max_depth is not None]
        return min(depths) if depths else None

    def __call__(self, x) -> np.ndarray:
        return block_diag([p(x) for p in self.parts])


@dataclass(eq=False)
class QuotientRep:
    """Left multiplication on a Gram-form quotient of (algebra basis) x C^h.

    Reference route only: the extension steps build :class:`KrausRep`, and
    the differential tests certify the two unitarily equivalent.  ``system``
    must provide ``left_mult(x, depth)``, the coordinate matrix of a -> x a.
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

    def __call__(self, x) -> np.ndarray:
        lm = self.system.left_mult(x, self.depth)
        t = self.lift.reshape(self.n, self.h, self.dim)
        out = np.einsum("mn,nhr->mhr", lm, t).reshape(self.n * self.h, self.dim)
        return self.cmap @ out


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


def rep_and_shifted(system, rep):
    """a -> (rep(a), rep(alpha(a))), the images most clauses share."""
    return lambda a: (rep(a), rep(system.alpha_apply(a)))


def leaves_span(basis, tol: Tolerance = DEFAULT_TOL):
    """Clause x -> C* x B for the orthonormal columns B of a subspace.

    C is an orthonormal basis of the complement of span B, so the clause's
    spectral norm equals ||(I - B B*) x B||.  None when B is empty or spans
    the whole space, where that norm is exactly 0.
    """
    comp = orthonormal_complement(basis, basis.shape[0], tol)
    if comp.shape[1] == 0 or basis.shape[1] == 0:
        return None
    comp_h = comp.conj().T
    return lambda x: comp_h @ (x @ basis)


def invariance_residual(elements, rep, basis, tol: Tolerance = DEFAULT_TOL) -> float:
    """max over ``elements`` of ||(I - B B*) rep(a) B||, B orthonormal columns."""
    off = leaves_span(basis, tol)
    if off is None:
        return 0.0
    (inv,) = basis_sweep(elements, lambda a: (rep(a),), off)
    return inv


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
    dynamics step than that.
    """

    system: object
    rep: object
    contraction: np.ndarray
    depth: Optional[int] = None

    def __post_init__(self):
        t = as_matrix(self.contraction)
        if t.shape != (self.rep.dim, self.rep.dim):
            raise ShapeMismatch(f"contraction of shape {t.shape} on a space of "
                                f"dimension {self.rep.dim}")
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
    """max over basis a of residual(T pi(alpha(a)), pi(a) T)."""
    if pair.system.is_tower:
        if pair.depth is None or pair.depth + 1 > pair.system.d_max:
            raise DepthExceeded("covariance check needs depth + 1 <= d_max")
    d = usable_depth(pair.system, [pair.rep], 1, pair.depth)
    t = pair.contraction
    (worst,) = basis_sweep(pair.system.basis(d), rep_and_shifted(pair.system, pair.rep),
                           lambda pa, paa: (t @ paa, pa @ t))
    return worst


@dataclass(frozen=True)
class DefectData:
    delta: np.ndarray        # (I - T*T)^(1/2)
    delta_star: np.ndarray   # (I - TT*)^(1/2)
    pi_commutation: float        # max_a ||[delta_star, pi(a)]||
    pi_alpha_commutation: float  # max_a ||[delta, pi(alpha(a))]||


def defect_roots(pair: CovariantPair, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The defect operators (I - T*T)^(1/2) and (I - TT*)^(1/2) of a contraction."""
    t = pair.contraction
    nrm = spectral_norm(t)
    if nrm > 1.0 + tol.rank_eps:
        raise NotContraction(f"||T|| = {nrm:.12f} exceeds 1")
    eye = np.eye(pair.space_dim, dtype=complex)
    # ||T|| may sit within rank_eps above 1, pushing eigenvalues of the
    # defect slightly below zero; widen the clamp floor accordingly.
    floor = Tolerance(tol.rank_eps, tol.residual_tol,
                      max(tol.psd_floor, 4.0 * tol.rank_eps))
    return psd_sqrt(eye - t.conj().T @ t, floor), psd_sqrt(eye - t @ t.conj().T, floor)


def defect_operators(pair: CovariantPair, tol: Tolerance = DEFAULT_TOL) -> DefectData:
    """Defect operators of T and T*, with their commutation residuals.

    Covariance makes ``delta_star`` commute with the representation and
    ``delta`` with its composition with the dynamics; both facts are
    measured rather than assumed.
    """
    delta, delta_star = defect_roots(pair, tol)
    d = usable_depth(pair.system, [pair.rep], 1, pair.depth)
    comm, comm_alpha = basis_sweep(
        pair.system.basis(d), rep_and_shifted(pair.system, pair.rep),
        lambda pa, paa: (delta_star @ pa, pa @ delta_star),
        lambda pa, paa: (delta @ paa, paa @ delta))
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


def resolve_transfer(system, strategy, tol: Tolerance = DEFAULT_TOL) -> Callable:
    """The transfer operator the strategy effectively uses.

    For the GNS strategy this inverts the dynamics on the range of the
    expectation (alpha^{-1} o E), by least squares with a residual gate.
    """
    if isinstance(strategy, AdaptedStrategy):
        return strategy.transfer
    if isinstance(strategy, GnsStrategy):
        e = strategy.expectation

        def tau(x):
            return system.solve_alpha(e(x), tol)

        return tau
    raise StrategyInvalid(f"unknown strategy {strategy!r}")


def verify_strategy(system, strategy, depth, tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    """Gate the strategy data before any construction uses it."""
    rep = ClauseReport()
    if isinstance(strategy, AdaptedStrategy):
        tau_cp, alpha_hom = system.transfer_check_data(strategy.transfer, depth)
        tr = verify_transfer(tau_cp, alpha_hom, tol)
        rep.extend(tr.clauses())
        if not rep.passed:
            raise StrategyInvalid("transfer operator fails its checks")
        return rep
    if isinstance(strategy, GnsStrategy):
        e_cp, alpha_hom = system.expectation_check_data(strategy.expectation, depth)
        cp = verify_completely_positive(e_cp, tol)
        off = range_defect(alpha_hom, e_cp.matrix, tol)
        rep.add(clause("expectation/idempotent", "E(E(a)) = E(a)",
                       idempotency_residual(e_cp), tol.residual_tol))
        rep.add(clause("expectation/unital", "E(1) = 1", unit_residual(e_cp),
                       tol.residual_tol))
        rep.add(clause("expectation/completely-positive", "min eig Choi(E) >= 0",
                       max(0.0, -cp.min_eig), tol.psd_floor))
        rep.add(clause("expectation/range", "ran E inside ran alpha", off, tol.residual_tol))
        if not rep.passed:
            raise StrategyInvalid("conditional expectation fails its checks")
        return rep
    raise StrategyInvalid(f"unknown strategy {strategy!r}")


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

    def clauses(self, prefix: str = "extension-step") -> ClauseReport:
        rep = ClauseReport()
        rep.add(clause(f"{prefix}/isometry", "W* W = I",
                       self.isometry_residual, self.threshold))
        rep.add(clause(f"{prefix}/compression", "W* rho(alpha(a)) W = pi(a)",
                       self.extension_residual, self.threshold))
        rep.add(clause(f"{prefix}/projection-commutes", "[W W*, rho(alpha(a))] = 0",
                       self.commutant_residual, self.threshold))
        rep.add(clause(f"{prefix}/minimal", "span rho(A) W H = K",
                       0.0 if self.minimality_rank == self.dilation_dim else 1.0, 0.5,
                       note=f"rank {self.minimality_rank} of {self.dilation_dim}"))
        return rep


@dataclass(eq=False)
class HBExtension:
    """An isometric extension step (rho, W) for one representation."""

    rho: object
    isometry: np.ndarray
    strategy_kind: str
    phi: Callable                 # y -> pi(tau(y)), the CP map the step dilates
    base_rep: object
    system: object
    check_depth: Optional[int]
    working_depth: Optional[int]
    report: HBReport

    @property
    def dilation_dim(self) -> int:
        return self.rho.dim

    @property
    def space_dim(self) -> int:
        return self.isometry.shape[1]


def hb_extend(pair: CovariantPair, strategy, tol: Tolerance = DEFAULT_TOL,
              rng=None) -> HBExtension:
    """One extension step for the pair's representation (T plays no role here)."""
    t_depth = pair.system.stinespring_depth(pair.depth) if pair.system.is_tower else None
    verify_strategy(pair.system, strategy, t_depth, tol)
    return extend_representation(pair.system, pair.rep, strategy, pair.depth, tol, rng)


def extend_representation(system, rep, strategy, check_depth,
                          tol: Tolerance = DEFAULT_TOL, rng=None) -> HBExtension:
    """Extension step for a bare representation; used level by level in chains.

    Strategy data is assumed verified by the caller (chains verify once).
    """
    working = system.stinespring_depth(check_depth) if system.is_tower else None
    if system.is_tower and working > system.d_max:
        raise DepthExceeded(f"working depth {working} exceeds d_max {system.d_max}")
    tau = resolve_transfer(system, strategy, tol)

    def phi(y):
        return rep(tau(y))

    if isinstance(strategy, AdaptedStrategy):
        rho, w = _stinespring_step(system, rep, phi, working, tol, rng)
    elif isinstance(strategy, GnsStrategy):
        rho, w = _gns_step(system, rep, phi, check_depth, working, tol, rng)
    else:
        raise StrategyInvalid(f"unknown strategy {strategy!r}")

    rep_report = _certify_step(system, rep, rho, w, check_depth, tol)
    return HBExtension(rho, w, strategy.kind, phi, rep, system,
                       check_depth, working, rep_report)


def _stinespring_step(system, rep, phi, working, tol, rng):
    view = system.algebra_view(working)
    phi_units = [phi(b) for b in system.basis(working)]
    dil = kraus_dilation(view, unit_image_chois(view, phi_units, rep.dim), tol)
    return _kraus_rep(system, working, dil, rng)


def _kraus_rep(system, working, dil, rng):
    """The dilation's representation and isometry, in a Haar-rotated basis
    when a generator is given."""
    if rng is None:
        return KrausRep(system, working, dil), dil.isometry
    q = haar_unitary(dil.dim, rng)
    return KrausRep(system, working, dil, q), q @ dil.isometry


def _gns_step(system, rep, phi, check_depth, working, tol, rng):
    view = system.algebra_view(working)
    span_basis = system.basis(check_depth)
    images = [rep(b) for b in span_basis]
    summands = cyclic_summands(images, rep.dim, tol)
    phi_units = [phi(b) for b in system.basis(working)] if summands else []
    shifted_basis = [system.alpha_apply(a) for a in span_basis]
    parts = []
    w_rows = []
    for xi, _ in summands:
        if np.linalg.norm(xi) < tol.rank_eps:
            raise NullCyclicVector("cyclic vector collapsed")
        omega_units = [np.vdot(xi, p @ xi) for p in phi_units]
        dil = kraus_dilation(view, unit_image_chois(view, omega_units, 1), tol)
        rho_s, w_s = _kraus_rep(system, working, dil, rng)
        cyc = w_s[:, 0]
        x1 = np.column_stack([img @ xi for img in images])
        x2 = np.column_stack([rho_s(aa) @ cyc for aa in shifted_basis])
        w_rows.append(x2 @ np.linalg.pinv(x1, rcond=tol.rank_eps))
        parts.append(rho_s)
    rho = DirectSumRep(tuple(parts))
    w = np.vstack(w_rows) if w_rows else np.zeros((0, rep.dim), dtype=complex)
    return rho, w


def _certify_step(system, rep, rho, w, check_depth, tol) -> HBReport:
    d = usable_depth(system, [rep, rho], 1, check_depth)
    iso = residual(w.conj().T @ w, np.eye(rep.dim))
    ww = w @ w.conj().T
    ext, comm = basis_sweep(
        system.basis(d), lambda a: (rho(system.alpha_apply(a)), rep(a)),
        lambda ra, pa: (w.conj().T @ ra @ w, pa),
        lambda ra, pa: (ww @ ra, ra @ ww))
    span_depth = rho.max_depth if system.is_tower else None
    cols = [rho(a) @ w for a in system.basis(span_depth)]
    _, rank = orthonormal_span(np.hstack(cols), tol)
    return HBReport(float(ext), float(iso), float(comm), rho.dim, rank,
                    tol.residual_tol)


# ---------------------------------------------------------------------------
# the two-step block construction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TwoStepBlock:
    """One block coisometric step on H + defect space."""

    defect_basis: np.ndarray      # orthonormal columns inside the dilation space
    d_star: np.ndarray            # defect map back to H, in basis coordinates
    pi_hat: object                # restriction of rho to the defect space
    block: np.ndarray             # [[T, D*], [0, 0]]
    report: ClauseReport


def two_step(pair: CovariantPair, ext: HBExtension,
             tol: Tolerance = DEFAULT_TOL, rng=None) -> TwoStepBlock:
    """Build the defect space rho(A) W Delta* H and the block partial isometry."""
    _, delta_star = defect_roots(pair, tol)
    w = ext.isometry
    seed_cols = w @ delta_star
    span_depth = ext.rho.max_depth if pair.system.is_tower else None
    cols = [ext.rho(a) @ seed_cols for a in pair.system.basis(span_depth)]
    basis, rank = orthonormal_span(np.hstack(cols) if cols else seed_cols, tol)
    if rng is not None and rank:
        basis = basis @ haar_unitary(rank, rng)

    inv = invariance_residual(pair.system.basis(span_depth), ext.rho, basis, tol)
    if inv > tol.residual_tol:
        raise InvarianceViolation(f"defect space drifts under rho by {inv:.3e}")

    pi_hat = RestrictedRep(ext.rho, basis)
    d_star = delta_star @ w.conj().T @ basis
    h = pair.space_dim
    k = basis.shape[1]
    block = np.zeros((h + k, h + k), dtype=complex)
    block[:h, :h] = pair.contraction
    block[:h, h:] = d_star

    rep = ClauseReport()
    target = block_diag([np.eye(h, dtype=complex), np.zeros((k, k), dtype=complex)])
    rep.add(clause("two-step/partial-isometry", "M M* = I_H + 0",
                   residual(block @ block.conj().T, target), tol.residual_tol))
    rep.add(clause("two-step/partial-isometry-idem", "M M* M = M",
                   residual(block @ block.conj().T @ block, block), tol.residual_tol))
    d = usable_depth(pair.system, [pair.rep, pi_hat], 1, pair.depth)
    sigma = DirectSumRep((pair.rep, pi_hat))
    (cov,) = basis_sweep(pair.system.basis(d), rep_and_shifted(pair.system, sigma),
                         lambda sa, saa: (block @ saa, sa @ block))
    rep.add(clause("two-step/covariance", "M diag(pi, pi^)(alpha(a)) = diag(pi, pi^)(a) M",
                   cov, tol.residual_tol))
    rep.add(clause("two-step/invariance", "rho(A) preserves the defect space",
                   inv, tol.residual_tol))
    return TwoStepBlock(basis, d_star, pi_hat, block, rep)
