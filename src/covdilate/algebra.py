"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

An algebra is a tuple of block sizes ``(n_1, ..., n_r)``; its elements carry
one ``n_b x n_b`` complex matrix per block.  The canonical basis is the
family of matrix units, ordered block-major and row-major inside each block,
so an element's coordinate vector is just the concatenation of its flattened
blocks.  Star homomorphisms, states, representations, the GNS construction
and cyclic decompositions all act on these coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NotCP, NotInjective, NotState,
                     ShapeMismatch)
from .numerics import (DEFAULT_TOL, Tolerance, as_matrix, basis_sweep,
                       block_diag, block_slices, certified, kron_eye,
                       orthonormal_span, read_only, residual, spectral_norm, stack_images,
                       svd_rank)
from .report import ClauseReport, clause


@dataclass(frozen=True)
class FiniteDimCStarAlgebra:
    """Direct sum of full matrix algebras, the desk-scale model of A."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_sizes) == 0:
            raise ValueError("algebra needs at least one block")
        if any(n < 1 for n in self.block_sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "block_sizes", tuple(int(n) for n in self.block_sizes))

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.block_sizes)

    @functools.cached_property
    def coord_slices(self) -> tuple[slice, ...]:
        """The coordinate range of each block."""
        return tuple(block_slices(n * n for n in self.block_sizes))

    def unit_index(self, block: int, p: int, q: int) -> int:
        return self.coord_slices[block].start + p * self.block_sizes[block] + q

    def element(self, blocks) -> "AlgebraElement":
        mats = tuple(as_matrix(b) for b in blocks)
        if len(mats) != len(self.block_sizes):
            raise ShapeMismatch("wrong number of blocks")
        for m, n in zip(mats, self.block_sizes):
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
        return AlgebraElement(self, mats)

    def from_coords(self, coords) -> "AlgebraElement":
        v = np.asarray(coords, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise DimensionMismatch(f"coordinate vector of size {v.size}, expected {self.dim}")
        return AlgebraElement(self, tuple(v[s].reshape(n, n)
                                          for n, s in zip(self.block_sizes, self.coord_slices)))

    def split(self, coords) -> tuple[np.ndarray, ...]:
        """Coordinate rows (m, dim) as one (m, n_b, n_b) stack per block."""
        c = np.asarray(coords)
        return tuple(c[:, s].reshape(len(c), n, n)
                     for n, s in zip(self.block_sizes, self.coord_slices))

    def join(self, blocks) -> np.ndarray:
        """Inverse of :meth:`split`: per-block stacks back to coordinate rows."""
        return np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)

    def full_matrices(self, coords) -> np.ndarray:
        """Coordinate rows as the (m, N, N) stack of block-diagonal matrices."""
        return block_diag(self.split(coords))

    def unit(self) -> "AlgebraElement":
        return self.element([np.eye(n, dtype=complex) for n in self.block_sizes])

    def zero(self) -> "AlgebraElement":
        return self.element([np.zeros((n, n), dtype=complex) for n in self.block_sizes])

    def basis(self) -> tuple["AlgebraElement", ...]:
        return _matrix_unit_basis(self)


@functools.lru_cache(maxsize=None)
def _matrix_unit_basis(algebra: FiniteDimCStarAlgebra):
    out = []
    for b, n in enumerate(algebra.block_sizes):
        for p in range(n):
            for q in range(n):
                blocks = [np.zeros((m, m), dtype=complex) for m in algebra.block_sizes]
                blocks[b][p, q] = 1.0
                out.append(AlgebraElement(algebra, tuple(blocks)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One complex matrix per block of the parent algebra."""

    algebra: FiniteDimCStarAlgebra
    blocks: tuple[np.ndarray, ...]

    # finite algebras are not graded: every coordinate chunk has depth None
    depth = None

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    def full_matrix(self) -> np.ndarray:
        return block_diag(self.blocks)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def norm(self) -> float:
        return max((spectral_norm(b) for b in self.blocks), default=0.0)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra,
                                  tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return AlgebraElement(self.algebra, tuple(complex(other) * b for b in self.blocks))

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(complex(scalar) * b for b in self.blocks))

    def _check(self, other: "AlgebraElement") -> None:
        if other.algebra.block_sizes != self.algebra.block_sizes:
            raise ShapeMismatch("elements of different algebras")


def operator_algebra(space_dim: int) -> FiniteDimCStarAlgebra:
    """B(H) for an explicit finite-dimensional H, as a single-block algebra."""
    return FiniteDimCStarAlgebra((space_dim,))


@dataclass(frozen=True, eq=False)
class StarHom:
    """Linear map between algebras, stored by its action on coordinates.

    Nothing is assumed at construction time; multiplicativity, adjoint
    preservation and unitality are certified by :func:`verify_star_hom`,
    which the map can hold since ``matrix`` is a read-only copy of the
    given coordinates (the caller's array stays its own).
    """

    source: FiniteDimCStarAlgebra
    target: FiniteDimCStarAlgebra
    matrix: np.ndarray  # target.dim x source.dim

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch(f"coordinate matrix of shape {m.shape}")
        object.__setattr__(self, "matrix", read_only(m))

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.target.from_coords(self.matrix @ x.coords)

    def compose(self, inner: "StarHom") -> "StarHom":
        if inner.target.block_sizes != self.source.block_sizes:
            raise ShapeMismatch("composition shape mismatch")
        return StarHom(inner.source, self.target, self.matrix @ inner.matrix)

    def inverse(self, tol: Tolerance = DEFAULT_TOL) -> "StarHom":
        if self.source.dim != self.target.dim:
            raise NotInjective("only square coordinate maps can be inverted")
        if svd_rank(self.matrix, tol) < self.source.dim:
            raise NotInjective("coordinate map is singular")
        return StarHom(self.target, self.source, np.linalg.inv(self.matrix))

    @staticmethod
    def identity(algebra: FiniteDimCStarAlgebra) -> "StarHom":
        return StarHom(algebra, algebra, np.eye(algebra.dim, dtype=complex))

    @staticmethod
    def inner_automorphism(u: AlgebraElement) -> "StarHom":
        """a -> u a u* for a (block-diagonal) unitary u."""
        alg = u.algebra
        units = alg.split(np.eye(alg.dim, dtype=complex))
        images = alg.join([ub @ x @ ub.conj().T for ub, x in zip(u.blocks, units)])
        return StarHom(alg, alg, images.T)

    @staticmethod
    def block_permutation(algebra: FiniteDimCStarAlgebra, perm) -> "StarHom":
        """Permute equal-size blocks; block b of the image is block perm[b] of the input."""
        perm = list(perm)
        if sorted(perm) != list(range(len(algebra.block_sizes))):
            raise ShapeMismatch("not a permutation of the blocks")
        for b, src in enumerate(perm):
            if algebra.block_sizes[b] != algebra.block_sizes[src]:
                raise ShapeMismatch("permuted blocks must have equal sizes")
        units = algebra.split(np.eye(algebra.dim, dtype=complex))
        return StarHom(algebra, algebra, algebra.join([units[src] for src in perm]).T)


def verify_star_hom(h: StarHom, tol: Tolerance = DEFAULT_TOL) -> "StarHomReport":
    """Certify multiplicativity, star preservation and unitality on basis pairs.

    The pairs (b_i, b_j) run in chunks of index rows; both sides are formed
    by batched block products of coordinate stacks.  The report is computed
    once per tolerance and held by ``h`` (:func:`~covdilate.numerics.certified`).
    """
    return certified(h, ("star-hom", tol), lambda: _star_hom_report(h, tol))


def _star_hom_report(h: StarHom, tol: Tolerance) -> "StarHomReport":
    src, dst = h.source, h.target
    units = np.eye(src.dim, dtype=complex)
    images = h.matrix.T  # row i: the coordinates of h(b_i)

    def product(alg, left, right):
        return alg.join([x @ y for x, y in zip(alg.split(left), alg.split(right))])

    def pair_sides(ij):
        i, j = ij[:, 0], ij[:, 1]
        return (dst.full_matrices(product(src, units[i], units[j]) @ h.matrix.T),
                dst.full_matrices(product(dst, images[i], images[j])))

    def adjoint(alg, coords):
        return alg.join([x.swapaxes(-1, -2).conj() for x in alg.split(coords)])

    pairs = np.indices((src.dim, src.dim)).reshape(2, -1).T
    (mult,) = basis_sweep(pairs, pair_sides, lambda lhs, rhs: (lhs, rhs),
                          threshold=tol.residual_tol)
    (star,) = basis_sweep(
        src.dim, lambda c: (c,),
        lambda c: (dst.full_matrices(adjoint(src, c) @ h.matrix.T),
                   dst.full_matrices(adjoint(dst, c @ h.matrix.T))),
        threshold=tol.residual_tol)
    return StarHomReport(mult, star, unit_residual(h, tol.residual_tol), tol.residual_tol)


def unit_residual(m, threshold: float | None = None) -> float:
    """residual(m(1), 1) for a coordinate map between unital algebras,
    decided against ``threshold`` when one is given."""
    return residual(m(m.source.unit()).full_matrix(), m.target.unit().full_matrix(),
                    threshold)


@dataclass(frozen=True)
class StarHomReport:
    mult_residual: float
    star_residual: float
    unit_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return max(self.mult_residual, self.star_residual, self.unit_residual) <= self.threshold

    def clauses(self, prefix: str = "star-hom") -> ClauseReport:
        rep = ClauseReport()
        rep.add(clause(f"{prefix}/multiplicative", "h(ab) = h(a) h(b)",
                       self.mult_residual, self.threshold))
        rep.add(clause(f"{prefix}/star", "h(a*) = h(a)*", self.star_residual, self.threshold))
        rep.add(clause(f"{prefix}/unital", "h(1) = 1", self.unit_residual, self.threshold))
        return rep


@dataclass(frozen=True)
class EndomorphismReport:
    hom: StarHomReport
    injective: bool
    automorphism: bool
    coordinate_rank: int
    note: str

    @property
    def passed(self) -> bool:
        return self.hom.passed and self.injective


def verify_endomorphism(alpha: StarHom, tol: Tolerance = DEFAULT_TOL) -> EndomorphismReport:
    """Certify that alpha is a unital injective endomorphism of its algebra.

    On a finite-dimensional algebra a unital injective endomorphism is
    automatically surjective, so the automorphism flag equals injectivity;
    genuine non-surjectivity needs the graded tower backend.  The report is
    held by ``alpha``, once per tolerance, as in :func:`verify_star_hom`.
    """
    if alpha.source.block_sizes != alpha.target.block_sizes:
        raise ShapeMismatch("endomorphism requires source = target")
    return certified(alpha, ("endomorphism", tol), lambda: _endomorphism_report(alpha, tol))


def _endomorphism_report(alpha: StarHom, tol: Tolerance) -> EndomorphismReport:
    hom = verify_star_hom(alpha, tol)
    rank = svd_rank(alpha.matrix, tol)
    injective = rank == alpha.source.dim
    note = ("injective + unital on a finite-dimensional algebra forces surjectivity; "
            "non-surjective dynamics require the tower backend")
    return EndomorphismReport(hom, injective, injective, rank, note)


@dataclass(frozen=True, eq=False)
class State:
    """Linear functional on an algebra, stored as a coordinate row vector."""

    algebra: FiniteDimCStarAlgebra
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size != self.algebra.dim:
            raise DimensionMismatch("functional has wrong dimension")
        object.__setattr__(self, "vector", v)

    def __call__(self, x: AlgebraElement) -> complex:
        return complex(self.vector @ x.coords)

    @staticmethod
    def normalized_trace(algebra: FiniteDimCStarAlgebra) -> "State":
        total = sum(algebra.block_sizes)
        return State(algebra, algebra.join([np.eye(n, dtype=complex)[None] / total
                                            for n in algebra.block_sizes])[0])

    @staticmethod
    def from_densities(algebra: FiniteDimCStarAlgebra, densities) -> "State":
        """omega(a) = sum_b tr(rho_b a_b) for PSD blocks rho_b with total trace 1."""
        blocks = []
        for b, n in enumerate(algebra.block_sizes):
            rho = as_matrix(densities[b])
            if rho.shape != (n, n):
                raise ShapeMismatch("density block of wrong shape")
            # tr(rho E_pq) = rho[q, p]
            blocks.append(rho.T[None])
        return State(algebra, algebra.join(blocks)[0])


def _state_chois(omega: State) -> list[np.ndarray]:
    """Per-block Choi matrices [omega(e_pq)]_{pq}, the transposed densities."""
    alg = omega.algebra
    return [omega.vector[s].reshape(n, n) for n, s in zip(alg.block_sizes, alg.coord_slices)]


def verify_state(omega: State, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Return (unit residual, most negative Choi eigenvalue).

    The Gram form omega(b_i* b_j) is n_b copies of each Choi block, so both
    have the same smallest eigenvalue.
    """
    unit_res = abs(omega(omega.algebra.unit()) - 1.0)
    low = min(float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
              for c in _state_chois(omega))
    return float(unit_res), low


class ChunkRep:
    """What every representation shares: ``images(coords, depth)`` maps an
    (m, n) array of coordinate rows at basis depth ``depth`` (None on finite
    algebras) to the (m, dim, dim) stack of their images, and rep(x) is its
    one-row case, as a dense matrix."""

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.images(x.coords[None], x.depth))[0]


@dataclass(frozen=True, eq=False)
class Representation(ChunkRep):
    """Unital *-homomorphism of an algebra into B(C^space_dim)."""

    algebra: FiniteDimCStarAlgebra
    space_dim: int
    hom: StarHom

    # engine protocol: finite-dimensional reps have no depth restriction
    max_depth = None

    @property
    def dim(self) -> int:
        return self.space_dim

    def images(self, coords, depth=None) -> np.ndarray:
        d = self.space_dim
        return (np.asarray(coords) @ self.hom.matrix.T).reshape(len(coords), d, d)

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> StarHomReport:
        return verify_star_hom(self.hom, tol)

    @staticmethod
    def from_images(algebra: FiniteDimCStarAlgebra, images) -> "Representation":
        """From the images of the basis, a sequence or (dim, d, d) stack."""
        mats = [as_matrix(m) for m in images]
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ShapeMismatch(f"images must all be {d} x {d}")
        if len(mats) != algebra.dim:
            raise ShapeMismatch("one image per basis element required")
        coords = np.stack(mats).reshape(len(mats), d * d)
        return Representation(algebra, d, StarHom(algebra, operator_algebra(d), coords.T))

    @staticmethod
    def from_multiplicities(algebra: FiniteDimCStarAlgebra, multiplicities,
                            unitary=None) -> "Representation":
        """pi(a) = U (directsum_b a_b x I_{m_b}) U*; multiplicity 0 drops a block."""
        mults = [int(m) for m in multiplicities]
        if len(mults) != len(algebra.block_sizes):
            raise ShapeMismatch("one multiplicity per block required")
        if any(m < 0 for m in mults) or sum(mults) == 0:
            raise ShapeMismatch("multiplicities must be nonnegative, not all zero")
        d = sum(n * m for n, m in zip(algebra.block_sizes, mults))
        u = np.eye(d, dtype=complex) if unitary is None else as_matrix(unitary)
        if u.shape != (d, d):
            raise ShapeMismatch(f"basis unitary must be {d} x {d}")
        units = algebra.split(np.eye(algebra.dim, dtype=complex))
        images = u @ block_diag([kron_eye(blk, m) for blk, m in zip(units, mults) if m]) \
            @ u.conj().T
        return Representation.from_images(algebra, images)


@dataclass(frozen=True)
class GnsData:
    rep: Representation
    cyclic: np.ndarray
    embed_dim: int
    vector_residual: float   # max_a |(rho(a) xi, xi) - omega(a)|
    cyclic_span_rank: int


def gns(algebra: FiniteDimCStarAlgebra, omega: State,
        tol: Tolerance = DEFAULT_TOL) -> GnsData:
    """GNS representation of a state, read off its Choi blocks.

    The space is directsum_b C^{n_b} x C^{r_b} with r_b the rank of the b-th
    density block, rho(a) = directsum_b a_b x I_{r_b}, and the cyclic vector
    is the Kraus isometry of omega applied to 1 (the kernel of
    :func:`covdilate.cpmaps.kraus_dilation` with a one-dimensional target).
    """
    from .cpmaps import kraus_dilation  # cpmaps imports this module

    unit_res, min_eig = verify_state(omega, tol)
    if unit_res > tol.residual_tol:
        raise NotState(f"omega(1) = 1 fails by {unit_res:.3e}")
    if min_eig < -tol.psd_floor:
        raise NotState(f"Choi eigenvalue {min_eig:.3e} below -psd_floor")
    try:
        dil = kraus_dilation(algebra, _state_chois(omega), tol)
    except NotCP as exc:
        raise NotState(f"omega fails the Choi checks: {exc}") from exc
    rep = Representation.from_multiplicities(algebra, dil.multiplicities)
    cyclic = dil.isometry[:, 0]
    orbit = stack_images(algebra.dim, rep.images, cyclic[:, None])
    # <rho(b_i) xi, xi> against omega(b_i), the i-th coordinate of omega
    vec_res = np.max(np.abs(cyclic.conj() @ orbit - omega.vector))
    return GnsData(rep, cyclic, dil.dim, float(vec_res), svd_rank(orbit, tol))


def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix of a -> x a on coordinates (row-major flattening per block).

    Used only by the Gram-quotient reference route.
    """
    return block_diag([np.kron(b, np.eye(n, dtype=complex))
                       for b, n in zip(x.blocks, x.algebra.block_sizes)])


def cyclic_decomposition(pi: Representation, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Split the space of pi into mutually orthogonal cyclic invariant subspaces."""
    images = stack_images(pi.algebra.dim, pi.images)
    return [basis for _, basis in cyclic_summands(images, pi.space_dim, tol)]


def cyclic_summands(images, space_dim: int,
                    tol: Tolerance = DEFAULT_TOL) -> list[tuple[np.ndarray, np.ndarray]]:
    """Greedy cyclic decomposition returning (cyclic vector, subspace basis) pairs.

    ``images`` is the (N, d, d) stack of the images of the basis.  Takes
    the first standard basis vector not yet covered and closes its residual
    under the algebra action; the orthocomplement of an invariant
    subspace is invariant, so summands stay orthogonal.
    """
    summands: list[tuple[np.ndarray, np.ndarray]] = []
    covered = np.zeros((space_dim, 0), dtype=complex)
    for j in range(space_dim):
        v = np.zeros(space_dim, dtype=complex)
        v[j] = 1.0
        r = v - covered @ (covered.conj().T @ v)
        if np.linalg.norm(r) <= 1e3 * tol.rank_eps:
            continue
        r = r / np.linalg.norm(r)
        basis, _ = orthonormal_span((images @ r).T, tol)
        summands.append((r, basis))
        covered = np.column_stack([covered, basis])
        if covered.shape[1] >= space_dim:
            break
    return summands


def range_subalgebra_basis(alpha: StarHom, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coordinate basis of the image of alpha."""
    basis, _ = orthonormal_span(alpha.matrix, tol)
    return basis
