"""Depth-graded tensor tower backend: the genuinely non-automorphic dynamics.

Stages are the matrix algebras A_d = M_{k^d}, embedded into each other by
x -> x tensor 1.  The dynamics is the tensor shift x -> 1 tensor x, a
unital injective *-homomorphism that raises the depth by one and is never
surjective, so the non-uniqueness phenomena that collapse on a fixed
finite-dimensional algebra appear here at desk scale.  Transfer operators
come from states on the local factor M_k: tau_phi = phi tensor id.

Every construction engine sees the tower through the same protocol as the
finite backend, with depth bookkeeping: each application of the dynamics
consumes one depth unit, and constructors validate their depth budget up
front.

The transfer's Kraus form in closed form.  Let rho be the k x k density
of phi, n = k^(depth - 1), and psi = tau_phi from the stage ``depth``
with its values embedded at the stage ``at``, M = k^(at - depth + 1)
(:meth:`TowerSystem.transfer_kraus`).  The matrix units of M_k (x) M_n are
E_(a i)(b j) = e_a e_b^T (x) e_i e_j^T, and

    psi(E_(a i)(b j)) = (phi(e_a e_b^T) e_i e_j^T) (x) I_M
                      = rho_ba e_i e_j^T (x) I_M.

So the Choi matrix [psi(E_PQ)]_PQ, with row (P, s) = ((a, i), (i', mu)),
has the entry rho_ba delta_ii' delta_jj' delta_mu nu at ((a, i, i', mu),
(b, j, j', nu)): in the Kronecker order (a, i, i', mu) of its rows it is

    Choi(psi) = rho^T (x) n Omega Omega* (x) I_M,
    Omega = n^(-1/2) sum_i e_i (x) e_i,

the fixed permutation being the identity in these coordinates.  Every gate
of :func:`~covdilate.cpmaps.kraus_dilation` is then a number of rho:

* Spectrum.  For the eigenpairs (lambda_l, w_l) of the Hermitian part of
  rho (the Choi route eigendecomposes the Hermitian part of Choi(psi),
  which is that of rho, transposed, in the same product), the eigenvalues
  are n lambda_l, each M times, with the eigenvectors conj(w_l) (x) Omega
  (x) e_mu, and 0 for the rest of the side k n^2 M.  The lowest and the
  largest eigenvalue with 0 included (``choi_edges``) are min(n lambda_min,
  0) and max(n lambda_max, 0), so the positivity gate (below -psd_floor (1
  + top)) and the cutoff rank_eps max(top, rank_eps) are decided on them.
  Scaled by sqrt(n lambda_l), the kept eigenvectors give the Kraus rows
  (conjugated): entry ((a, i), (l, mu), (i', mu')) is sqrt(lambda_l)
  w_l[a] delta_ii' delta_mu mu', and W* (x (x) I) W = psi(x) for these rows.
* Hermiticity.  The entries of Choi(psi) are those of rho and zeros, so
  its largest entry modulus is that of rho; and ||Choi - Choi*||_F = n
  sqrt(M) ||rho - rho*||_F, ||Choi - Choi*|| = n ||rho - rho*||, ||Choi|| =
  n ||rho||.  These are the four numbers of its ``hermitian_residual``.

On the two workloads: rho = I/2 at depth 3 into stage 3 gives the four
eigenvalues 2 at side 64, and rho = I/3 at depth 2 into stage 2 rank 9 at
side 81.  The Choi route (``cpmaps.transfer_kraus``) stays the oracle of
this form in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .algebra import FiniteDimCStarAlgebra, StarHom
from .covariant import CovariantPair, covariant_pair
from .cpmaps import CPMap, KrausDilation, KrausRep, KrausTransfer, least_cut
from .errors import (DepthExceeded, DepthZero, RangeNotInImage, ShapeMismatch,
                     SizeCap, StrategyInvalid)
from .numerics import (DEFAULT_TOL, Tolerance, UpperBound, _canonical_phases, as_matrix,
                       eye_kron, kron_eye, read_only, spectral_norm)


@dataclass(frozen=True)
class ShiftTower:
    """The graded family A_d = M_{k^d}, d <= d_max, under the tensor shift."""

    k: int
    d_max: int
    size_cap: int = 256

    def __post_init__(self):
        if self.k < 2:
            raise ShapeMismatch("local dimension k must be at least 2")
        if self.d_max < 1:
            raise ShapeMismatch("d_max must be at least 1")
        if self.k ** self.d_max > self.size_cap:
            raise SizeCap(f"k^d_max = {self.k ** self.d_max} exceeds the size cap "
                          f"{self.size_cap}")

    def stage_dim(self, depth: int) -> int:
        return self.k ** depth

    def stage(self, depth: int) -> FiniteDimCStarAlgebra:
        self._check_depth(depth)
        return FiniteDimCStarAlgebra((self.stage_dim(depth),))

    def unit(self, depth: int) -> "GradedElement":
        self._check_depth(depth)
        return GradedElement(self, depth, np.eye(self.stage_dim(depth), dtype=complex))

    def element(self, depth: int, mat) -> "GradedElement":
        self._check_depth(depth)
        m = as_matrix(mat)
        n = self.stage_dim(depth)
        if m.shape != (n, n):
            raise ShapeMismatch(f"stage-{depth} element must be {n} x {n}")
        return GradedElement(self, depth, m)

    def basis(self, depth: int) -> tuple["GradedElement", ...]:
        self._check_depth(depth)
        return _graded_basis(self, depth)

    def _check_depth(self, depth: int) -> None:
        if depth < 0 or depth > self.d_max:
            raise DepthExceeded(f"depth {depth} outside 0..{self.d_max}")


@functools.lru_cache(maxsize=None)
def _graded_basis(tower: ShiftTower, depth: int):
    n = tower.stage_dim(depth)
    out = []
    for p in range(n):
        for q in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[p, q] = 1.0
            out.append(GradedElement(tower, depth, m))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class GradedElement:
    """An element of one stage; operations embed to the deeper stage first."""

    tower: ShiftTower
    depth: int
    mat: np.ndarray

    @property
    def coords(self) -> np.ndarray:
        return self.mat.reshape(-1)

    def adjoint(self) -> "GradedElement":
        return GradedElement(self.tower, self.depth, self.mat.conj().T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat, 2)) if self.mat.size else 0.0

    def __add__(self, other: "GradedElement") -> "GradedElement":
        a, b = _common_depth(self, other)
        return GradedElement(self.tower, a.depth, a.mat + b.mat)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        a, b = _common_depth(self, other)
        return GradedElement(self.tower, a.depth, a.mat - b.mat)

    def __mul__(self, other):
        if isinstance(other, GradedElement):
            a, b = _common_depth(self, other)
            return GradedElement(self.tower, a.depth, a.mat @ b.mat)
        return GradedElement(self.tower, self.depth, complex(other) * self.mat)

    def __rmul__(self, scalar) -> "GradedElement":
        return GradedElement(self.tower, self.depth, complex(scalar) * self.mat)


def _common_depth(a: GradedElement, b: GradedElement):
    if a.tower is not b.tower and a.tower != b.tower:
        raise ShapeMismatch("elements of different towers")
    d = max(a.depth, b.depth)
    return embed(a, d), embed(b, d)


def embed(x: GradedElement, depth: int) -> GradedElement:
    """x tensor 1 up to the requested stage; unital, injective, multiplicative."""
    if depth == x.depth:
        return x
    (mat,) = _embed_coords(x.tower, x.coords[None], x.depth, depth)
    return GradedElement(x.tower, depth, mat)


def _embed_coords(tower: ShiftTower, coords, depth: int, at: int) -> np.ndarray:
    """Coordinate rows at ``depth`` as the (m, k^at, k^at) stack of x (x) 1."""
    _check_embedding(tower, depth, at)
    s = tower.stage_dim(depth)
    x = np.asarray(coords, dtype=complex).reshape(len(coords), s, s)
    return x if at == depth else kron_eye(x, tower.k ** (at - depth))


def _check_embedding(tower: ShiftTower, depth: int, at: int) -> None:
    if at < depth:
        raise DepthExceeded(f"cannot embed depth {depth} into shallower {at}")
    if at > tower.d_max:
        raise DepthExceeded(f"depth {at} exceeds d_max {tower.d_max}")


def shift_alpha(x: GradedElement) -> GradedElement:
    """The dynamics 1 tensor x; depth rises by one and is never surjective."""
    return TowerSystem(x.tower).alpha_apply(x)


def state_density(tower: ShiftTower, phi) -> np.ndarray:
    """Normalize a state specification on M_k to its density matrix.

    Accepts the name ``"trace"``, a unit vector of dimension k (giving the
    vector state), or a k x k density matrix of trace one.
    """
    k = tower.k
    if isinstance(phi, str):
        if phi == "trace":
            return np.eye(k, dtype=complex) / k
        raise StrategyInvalid(f"unknown state name {phi!r}")
    arr = np.asarray(phi, dtype=complex)
    if arr.ndim == 2:
        if arr.shape != (k, k):
            raise ShapeMismatch(f"density must be {k} x {k}")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > 1e-12:
            raise StrategyInvalid(f"density trace {tr} is not 1")
        return arr
    v = arr.reshape(-1)
    if v.size != k:
        raise ShapeMismatch(f"state vector must have dimension {k}")
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def transfer_phi(tower: ShiftTower, phi, y: GradedElement) -> GradedElement:
    """tau_phi(y) = (phi tensor id)(y); completely positive, unital left
    inverse of the shift."""
    rho = state_density(tower, phi)
    return TowerTransfer(tower, rho)(y)


@dataclass(frozen=True, eq=False)
class TowerTransfer:
    """The transfer operator tau_phi as a graded callable; ``density`` is a
    read-only copy, so that a strategy can hold its certificate."""

    tower: ShiftTower
    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "density", read_only(self.density))

    def __call__(self, y: GradedElement) -> GradedElement:
        (row,), depth = self.rows(y.coords[None], y.depth)
        return TowerSystem(self.tower).element_from_coords(row, depth)

    def rows(self, coords, depth: int):
        """tau_phi on coordinate rows at ``depth``: rows at depth - 1."""
        if depth == 0:
            raise DepthZero("transfer operators are undefined at depth 0")
        k = self.tower.k
        n = self.tower.stage_dim(depth - 1)
        y = np.asarray(coords).reshape(len(coords), k, n, k, n)
        out = np.einsum("qp,mpiqj->mij", self.density, y)
        return out.reshape(len(coords), n * n), depth - 1

    def as_cpmap(self, depth: int) -> CPMap:
        """Depth-fixed finite view A_depth -> A_{depth-1}."""
        if depth < 1:
            raise DepthZero("transfer view needs depth >= 1")
        return _stage_map(CPMap, self.tower, depth, self.rows)


@dataclass(frozen=True, eq=False)
class TowerExpectation:
    """E_phi = shift o tau_phi, the induced conditional expectation;
    ``density`` is a read-only copy, as in :class:`TowerTransfer`."""

    tower: ShiftTower
    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "density", read_only(self.density))

    def __call__(self, y: GradedElement) -> GradedElement:
        return shift_alpha(TowerTransfer(self.tower, self.density)(y))

    def rows(self, coords, depth: int):
        return TowerSystem(self.tower).alpha_coords(
            *TowerTransfer(self.tower, self.density).rows(coords, depth))

    def as_cpmap(self, depth: int) -> CPMap:
        if depth < 1:
            raise DepthZero("expectation view needs depth >= 1")
        return _stage_map(CPMap, self.tower, depth, self.rows)


def alpha_hom(tower: ShiftTower, depth: int) -> StarHom:
    """Depth-fixed view of the shift as a map A_depth -> A_{depth+1}."""
    if depth + 1 > tower.d_max:
        raise DepthExceeded(f"shift view from depth {depth} exceeds d_max")
    return _stage_map(StarHom, tower, depth, TowerSystem(tower).alpha_coords)


def _stage_map(kind, tower: ShiftTower, depth: int, rows):
    """A graded map as a ``kind`` (CPMap or StarHom) from stage ``depth``,
    given on coordinate rows (``rows(coords, depth)`` returns the rows of
    the values and their depth): its coordinate matrix is the transpose of
    the rows of the stage basis, I_N, taken in one call."""
    src = tower.stage(depth)
    out, dst_depth = rows(np.eye(src.dim, dtype=complex), depth)
    return kind(src, tower.stage(dst_depth), np.ascontiguousarray(out.T))


def standard_rep(tower: ShiftTower, depth: int, multiplicity: int = 1) -> KrausRep:
    """pi(x) = (x tensor 1) tensor I_m on the stage-``depth`` space: the
    KrausRep of multiplicity m whose dilation map is the identity."""
    if depth < 1 or depth > tower.d_max:
        raise DepthExceeded(f"representation depth {depth} outside 1..{tower.d_max}")
    if multiplicity < 1:
        raise ShapeMismatch("multiplicity must be positive")
    dim = tower.stage_dim(depth) * multiplicity
    if dim > tower.size_cap:
        raise SizeCap(f"k^depth * multiplicity = {dim} exceeds the size cap")
    return KrausRep(TowerSystem(tower), depth,
                    KrausDilation((multiplicity,), np.eye(dim, dtype=complex)))


@dataclass(frozen=True, eq=False)
class TowerSystem:
    """Engine protocol adapter for the tower backend."""

    tower: ShiftTower

    is_tower = True

    @property
    def d_max(self) -> int:
        return self.tower.d_max

    def basis(self, depth: int):
        return self.tower.basis(depth)

    def basis_size(self, depth: int) -> int:
        return self.tower.stage_dim(depth) ** 2

    def unit(self, depth: int) -> GradedElement:
        return self.tower.unit(depth)

    def algebra_view(self, depth: int) -> FiniteDimCStarAlgebra:
        return self.tower.stage(depth)

    def alpha_coords(self, coords, depth: int, n: int = 1):
        """The shift applied n times to coordinate rows at ``depth``: rows of
        I_{k^n} (x) x at depth + n."""
        if depth + n > self.tower.d_max:
            raise DepthExceeded(f"shift from depth {depth} by {n} exceeds d_max "
                                f"{self.tower.d_max}")
        s = self.tower.stage_dim(depth)
        out = eye_kron(self.tower.k ** n, np.asarray(coords).reshape(len(coords), s, s))
        return out.reshape(len(coords), -1), depth + n

    def shift_factors(self, rep, depth: int, n: int = 1):
        """(k^n, k^depth, R = rep.dim / k^(depth + n)): rep(alpha^n(a)) =
        I_(k^n) (x) a (x) I_R for a at ``depth``, since a ``KrausRep`` (x (x)
        I_r) puts the stage index first.  None for any other rep, or past
        its depth."""
        if not isinstance(rep, KrausRep) or depth + n > rep.max_depth:
            return None
        k = self.tower.k
        return k ** n, k ** depth, rep.dim // k ** (depth + n)

    def alpha_apply(self, x: GradedElement, n: int = 1) -> GradedElement:
        coords, depth = self.alpha_coords(x.coords[None], x.depth, n)
        return self.element_from_coords(coords[0], depth)

    def coords(self, x: GradedElement, depth: int) -> np.ndarray:
        return embed(x, depth).coords

    def element_from_coords(self, coords, depth: int) -> GradedElement:
        n = self.tower.stage_dim(depth)
        return GradedElement(self.tower, depth,
                             np.asarray(coords, dtype=complex).reshape(n, n))

    def coord_blocks(self, coords, depth: int, at: int) -> tuple:
        """Coordinate rows at ``depth`` embedded at depth ``at``: the one
        block stack of the stage algebra."""
        return (_embed_coords(self.tower, coords, depth, at),)

    def left_mult(self, x: GradedElement, depth: int) -> np.ndarray:
        """Coordinate matrix of a -> x a at ``depth``: the per-element form of
        the left multiplication that the reference-route ``QuotientRep``
        builds for whole chunks."""
        n = self.tower.stage_dim(depth)
        return np.kron(embed(x, depth).mat, np.eye(n, dtype=complex))

    def stinespring_depth(self, pair_depth: int) -> int:
        if pair_depth is None:
            raise DepthExceeded("tower constructions need an explicit check depth")
        return pair_depth + 1

    def solve_alpha(self, y: GradedElement, tol: Tolerance = DEFAULT_TOL) -> GradedElement:
        """The shift inverted on its range (one element of solve_alpha_rows)."""
        (row,), depth = self.solve_alpha_rows(y.coords[None], y.depth, tol)
        return self.element_from_coords(row, depth)

    def solve_alpha_rows(self, coords, depth: int, tol: Tolerance = DEFAULT_TOL):
        """The shift inverted on its range, row by row: the partial trace of
        y over the first factor, divided by k, is the x with 1 (x) x closest
        to y.  Each row is gated on its own residual."""
        if depth == 0:
            raise DepthZero("cannot invert the shift below depth 1")
        k = self.tower.k
        n = self.tower.stage_dim(depth - 1)
        y = np.asarray(coords, dtype=complex).reshape(len(coords), k, n, k, n)
        x = np.trace(y, axis1=1, axis2=3) / k
        gap = (eye_kron(k, x) - y.reshape(len(coords), k * n, k * n)).reshape(len(coords), -1)
        off = np.linalg.norm(gap, axis=1)
        outside = off > tol.residual_tol * (1.0 + np.linalg.norm(y.reshape(len(coords), -1),
                                                                 axis=1))
        if outside.any():
            raise RangeNotInImage(f"element misses the image of the shift by "
                                  f"{off[np.argmax(outside)]:.3e}")
        return x.reshape(len(coords), n * n), depth - 1

    def transfer_check_data(self, tau, depth: int):
        if not isinstance(tau, TowerTransfer):
            raise StrategyInvalid("tower backend expects a TowerTransfer")
        return tau.as_cpmap(depth), alpha_hom(self.tower, depth - 1)

    def expectation_check_data(self, e, depth: int):
        if not isinstance(e, TowerExpectation):
            raise StrategyInvalid("tower backend expects a TowerExpectation")
        return e.as_cpmap(depth), alpha_hom(self.tower, depth - 1)

    def transfer_kraus(self, tau, depth: int, at: int,
                       tol: Tolerance = DEFAULT_TOL) -> KrausTransfer:
        """The Kraus form of tau_phi from the stage ``depth``, its values
        embedded at the stage ``at``, in closed form from one k x k ``eigh``
        of the density (module docstring): no Choi matrix is formed."""
        if not isinstance(tau, TowerTransfer):
            raise StrategyInvalid("tower backend expects a TowerTransfer")
        if depth < 1:
            raise DepthZero("transfer operators are undefined at depth 0")
        _check_embedding(self.tower, depth - 1, at)
        k, rho = self.tower.k, tau.density
        n, m = k ** (depth - 1), k ** (at - depth + 1)
        vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
        edges = (min(n * float(vals[0]), 0.0), max(n * float(vals[-1]), 0.0))
        keep = n * vals > least_cut((edges,), tol)
        lam = vals[keep][::-1]
        kraus = _canonical_phases(vecs[:, keep][:, ::-1]) * np.sqrt(lam)
        # rows ((a, i), (l, mu), (i', mu')): sqrt(lambda_l) w_l[a] delta_ii' delta_mu mu'
        rows = np.einsum("al,ij,uv->ailujv", kraus, np.eye(n), np.eye(m))
        return KrausTransfer(
            self.tower.stage(depth), (n * m,),
            ((_choi_hermiticity(rho, n, m, tol.residual_tol),),), (edges,),
            (((np.repeat(n * lam, m), rows.reshape(k * n, lam.size * m, n * m)),),), tol)


def _choi_hermiticity(rho, n: int, m: int, threshold: float) -> float:
    """``hermitian_residual(C, threshold)`` of C = rho^T (x) n Omega Omega*
    (x) I_m from rho alone (module docstring): the Frobenius bound ||C -
    C*||_F / (1 + the largest entry modulus), and above ``threshold`` the
    exact ||C - C*|| / (1 + ||C||)."""
    skew = rho - rho.conj().T
    bound = n * math.sqrt(m) * float(np.linalg.norm(skew)) / (1.0 + float(np.abs(rho).max()))
    if bound <= threshold:
        return UpperBound(bound)
    return n * spectral_norm(skew) / (1.0 + n * spectral_norm(rho))


def shift_down_pair(tower: ShiftTower, depth: int, multiplicity: int,
                    scale: float, u, v,
                    tol: Tolerance = DEFAULT_TOL) -> CovariantPair:
    """Covariant pair fixture: T = scale (R tensor I_m) with
    R(xi_1 tensor xi') = <u, xi_1> (xi' tensor v) on the stage-``depth`` space.

    The check depth of the pair is depth - 1 (one shift must stay inside the
    representation).  ``u`` and ``v`` are normalized.
    """
    if not 0.0 <= scale <= 1.0:
        raise ShapeMismatch("scale must lie in [0, 1]")
    rep = standard_rep(tower, depth, multiplicity)
    k = tower.k
    uu = np.asarray(u, dtype=complex).reshape(-1)
    vv = np.asarray(v, dtype=complex).reshape(-1)
    if uu.size != k or vv.size != k:
        raise ShapeMismatch(f"u and v must have dimension {k}")
    uu = uu / np.linalg.norm(uu)
    vv = vv / np.linalg.norm(vv)
    rest = tower.stage_dim(depth - 1)
    r = np.kron(np.eye(rest, dtype=complex), vv.reshape(k, 1)) \
        @ np.kron(uu.conj().reshape(1, k), np.eye(rest, dtype=complex))
    t = scale * np.kron(r, np.eye(multiplicity, dtype=complex))
    return covariant_pair(rep.system, rep, t, depth=depth - 1, tol=tol)
