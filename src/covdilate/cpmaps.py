"""Completely positive maps, transfer operators and Stinespring dilations.

A :class:`CPMap` is a linear map between finite-dimensional C*-algebras
stored by its coordinate action, exactly like :class:`~covdilate.algebra.StarHom`
but without any homomorphism claim.  Complete positivity is certified by
per-source-block Choi matrices; for direct-sum sources CP holds iff it holds
on every block.  Transfer operators (CP left inverses of the dynamics) and
the induced conditional expectations ``E = alpha o tau`` are built and
verified here, together with the Choi/Kraus dilation kernel: the minimal
Stinespring dilation of a CP map on ``directsum_b M_{n_b}`` read off its
Choi blocks, shared by :func:`stinespring_minimal`, GNS and the extension
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import (AlgebraElement, ChunkRep, FiniteDimCStarAlgebra,
                      Representation, StarHom, operator_algebra,
                      range_subalgebra_basis, unit_residual)
from .errors import (NotCP, NotInjective, NotUnital, RangeNotInImage,
                     ShapeMismatch, TransferInvalid)
from .numerics import (DEFAULT_TOL, Tolerance, UpperBound, _canonical_phases, as_matrix,
                       basis_sweep, block_slices, eye_kron,
                       hermitian_residual, kron_eye, ranked_svds, read_only, residual,
                       spectral_norm, stack_images, svd_rank)
from .report import ClauseReport, clause


@dataclass(frozen=True, eq=False)
class CPMap:
    """Linear map between algebras given by its action on coordinates;
    ``matrix`` is a read-only copy of the given coordinates, so that a
    strategy can hold the certificate of its transfer or expectation."""

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

    def rows(self, coords, depth=None):
        """The map on coordinate rows (finite algebras have no depth)."""
        return np.asarray(coords) @ self.matrix.T, None

    def compose(self, inner: "CPMap") -> "CPMap":
        if inner.target.block_sizes != self.source.block_sizes:
            raise ShapeMismatch("composition shape mismatch")
        return CPMap(inner.source, self.target, self.matrix @ inner.matrix)

    @staticmethod
    def identity(algebra: FiniteDimCStarAlgebra) -> "CPMap":
        return CPMap(algebra, algebra, np.eye(algebra.dim, dtype=complex))

    @staticmethod
    def from_hom(h: StarHom) -> "CPMap":
        return CPMap(h.source, h.target, h.matrix)

    @staticmethod
    def from_images(source: FiniteDimCStarAlgebra, target: FiniteDimCStarAlgebra,
                    images) -> "CPMap":
        cols = [img.coords for img in images]
        if len(cols) != source.dim:
            raise ShapeMismatch("one image per basis element required")
        return CPMap(source, target, np.column_stack(cols))


def compose_rep(pi: Representation, tau: CPMap) -> CPMap:
    """pi o tau as a CP map into B(H)."""
    if tau.target.block_sizes != pi.algebra.block_sizes:
        raise ShapeMismatch("representation does not accept the map's target")
    return CPMap(tau.source, operator_algebra(pi.space_dim), pi.hom.matrix @ tau.matrix)


def choi_blocks(phi: CPMap) -> list[np.ndarray]:
    """One Choi-type matrix [phi(e_pq)]_{pq} per source block."""
    images = phi.target.full_matrices(phi.matrix.T)
    return unit_image_chois(phi.source, images, sum(phi.target.block_sizes))


def unit_image_chois(source: FiniteDimCStarAlgebra, unit_images,
                     inner_dim: int) -> list[np.ndarray]:
    """Choi blocks [phi(e_pq)]_{pq} from the images of the matrix units.

    ``unit_images[i]`` is the ``inner_dim x inner_dim`` matrix phi(b_i) (a
    scalar when ``inner_dim`` is 1), as a sequence or one stack; row and
    column index (p, s) of block b is ``p * inner_dim + s``.
    """
    h = inner_dim
    out = []
    for n, s in zip(source.block_sizes, source.coord_slices):
        units = np.asarray(unit_images[s], dtype=complex)
        out.append(units.reshape(n, n, h, h).transpose(0, 2, 1, 3).reshape(n * h, n * h))
    return out


@dataclass(frozen=True)
class CompletePositivityReport:
    min_choi_eigs: tuple[float, ...]   # per source block
    floor: float

    @property
    def passed(self) -> bool:
        return all(e >= -self.floor for e in self.min_choi_eigs)

    @property
    def min_eig(self) -> float:
        return min(self.min_choi_eigs)


def verify_completely_positive(phi: CPMap,
                               tol: Tolerance = DEFAULT_TOL) -> CompletePositivityReport:
    """Per-block Choi positivity; passes iff every block matrix is PSD.

    Cross-block positivity is automatic for *-linear maps on direct sums,
    so the per-block check is the full criterion here.
    """
    eigs = []
    for choi in choi_blocks(phi):
        herm = (choi + choi.conj().T) / 2.0
        vals = np.linalg.eigvalsh(herm)
        eigs.append(float(vals[0]))
    return CompletePositivityReport(tuple(eigs), tol.psd_floor)


@dataclass(frozen=True)
class TransferReport:
    left_inverse_residual: float
    unit_residual: float
    cp: CompletePositivityReport
    threshold: float

    @property
    def passed(self) -> bool:
        return (self.left_inverse_residual <= self.threshold
                and self.unit_residual <= self.threshold and self.cp.passed)

    def clauses(self, prefix: str = "transfer") -> ClauseReport:
        rep = ClauseReport()
        rep.add(clause(f"{prefix}/left-inverse", "tau(alpha(a)) = a",
                       self.left_inverse_residual, self.threshold))
        rep.add(clause(f"{prefix}/unital", "tau(1) = 1", self.unit_residual, self.threshold))
        rep.add(clause(f"{prefix}/completely-positive", "min eig Choi(tau) >= 0",
                       max(0.0, -self.cp.min_eig), self.cp.floor))
        return rep


def verify_transfer(tau: CPMap, alpha: StarHom,
                    tol: Tolerance = DEFAULT_TOL) -> TransferReport:
    """Certify that tau is a completely positive unital left inverse of alpha."""
    if alpha.source.block_sizes != tau.target.block_sizes \
            or alpha.target.block_sizes != tau.source.block_sizes:
        raise ShapeMismatch("tau and alpha are not composable both ways")
    (left,) = basis_sweep(
        alpha.source.dim, lambda c: (c,),
        lambda c: (tau.target.full_matrices(c @ alpha.matrix.T @ tau.matrix.T),
                   alpha.source.full_matrices(c)), threshold=tol.residual_tol)
    cp = verify_completely_positive(tau, tol)
    return TransferReport(left, unit_residual(tau, tol.residual_tol), cp, tol.residual_tol)


def idempotency_residual(e: CPMap, threshold: Optional[float] = None) -> float:
    """max over the basis of residual(E(E(a)), E(a)), decided against
    ``threshold`` when one is given."""
    (idem,) = basis_sweep(e.source.dim, lambda c: (c @ e.matrix.T,),
                          lambda ec: (e.target.full_matrices(ec @ e.matrix.T),
                                      e.target.full_matrices(ec)), threshold=threshold)
    return idem


def range_defect(alpha: StarHom, m: np.ndarray, tol: Tolerance = DEFAULT_TOL,
                 threshold: Optional[float] = None) -> float:
    """||M - P M|| / (1 + ||M||), P the projection onto the coordinates of ran alpha.

    With a ``threshold`` it is first valued by ||M - P M||_F / (1 + the
    largest column norm of M), at least the value since ||X||_F >= ||X|| and
    no column of M is longer than ||M||; at or below the threshold that
    :class:`~covdilate.numerics.UpperBound` is the value, and above it the
    value is exact."""
    rng_basis = range_subalgebra_basis(alpha, tol)
    off = m - rng_basis @ (rng_basis.conj().T @ m)
    if threshold is not None:
        bound = np.linalg.norm(off) / (1.0 + np.linalg.norm(m, axis=0).max(initial=0.0))
        if bound <= threshold:
            return UpperBound(bound)
    return spectral_norm(off) / (1.0 + spectral_norm(m))


def expectation_from_transfer(alpha: StarHom, tau: CPMap,
                              tol: Tolerance = DEFAULT_TOL) -> CPMap:
    """E = alpha o tau, the induced conditional expectation onto the range of alpha.

    Idempotency follows from tau o alpha = id, and is re-checked numerically
    together with range containment.
    """
    rep = verify_transfer(tau, alpha, tol)
    if not rep.passed:
        raise TransferInvalid(
            f"transfer checks failed (left inverse {rep.left_inverse_residual:.3e}, "
            f"unit {rep.unit_residual:.3e}, min Choi eig {rep.cp.min_eig:.3e})")
    e = CPMap(tau.source, alpha.target, alpha.matrix @ tau.matrix)
    idem = idempotency_residual(e, tol.residual_tol)
    if idem > tol.residual_tol:
        raise TransferInvalid(f"E = alpha o tau fails idempotency by {idem:.3e}")
    off_range = range_defect(alpha, e.matrix, tol, threshold=tol.residual_tol)
    if off_range > tol.residual_tol:
        raise TransferInvalid(f"range of E leaves the image of alpha by {off_range:.3e} "
                              "(relative)")
    return e


def transfer_from_expectation(alpha: StarHom, e: CPMap,
                              tol: Tolerance = DEFAULT_TOL) -> CPMap:
    """Solve alpha(tau(a)) = E(a) for tau on the injective coordinate map."""
    if e.source.block_sizes != alpha.target.block_sizes \
            or e.target.block_sizes != alpha.target.block_sizes:
        raise ShapeMismatch("E must act on the target algebra of alpha")
    if svd_rank(alpha.matrix, tol) < alpha.source.dim:
        raise NotInjective("alpha has a singular coordinate map")
    sol, _, _, _ = np.linalg.lstsq(alpha.matrix, e.matrix, rcond=None)
    off = spectral_norm(alpha.matrix @ sol - e.matrix)
    if off > tol.residual_tol * (1.0 + spectral_norm(e.matrix)):
        raise RangeNotInImage(f"E maps outside the image of alpha by {off:.3e}")
    tau = CPMap(e.source, alpha.source, sol)
    rep = verify_transfer(tau, alpha, tol)
    if not rep.passed:
        raise TransferInvalid("recovered map fails the transfer checks")
    return tau


@dataclass(frozen=True)
class KrausDilation:
    """Minimal Stinespring data of a CP map phi: directsum_b M_{n_b} -> B(C^h).

    The dilation space is directsum_b C^{n_b} x C^{r_b}, with r_b the rank of
    the b-th Choi block; rho(x) = directsum_b x_b x I_{r_b} acts there, and
    row (p, k) of the dilation map W is the conjugated p-th component of the
    k-th Kraus vector, so that W* rho(x) W = phi(x).  W is an isometry when
    phi is unital.
    """

    multiplicities: tuple[int, ...]   # r_b
    isometry: np.ndarray              # W : C^h -> K

    @property
    def dim(self) -> int:
        return self.isometry.shape[0]


def choi_spectra(chois) -> list:
    """``eigh`` of the hermitian part of each Choi block."""
    return [np.linalg.eigh((c + c.conj().T) / 2.0) for c in chois]


def kraus_dilation(source: FiniteDimCStarAlgebra, chois,
                   tol: Tolerance = DEFAULT_TOL, spectra=None) -> KrausDilation:
    """Minimal Stinespring dilation from the per-block Choi matrices of phi.

    The Gram form <a x h, b x h'> = <phi(a* b) h, h'> over (matrix units) x H
    is n_b copies of each Choi block, so its checks and rank rule are applied
    to the Choi blocks: a hermiticity residual, no eigenvalue below
    ``-psd_floor (1 + top)``, and eigenvalues above ``rank_eps max(top,
    rank_eps)`` kept, with ``top`` the largest eigenvalue over all blocks.
    Kept eigenvectors scaled by the square roots of their eigenvalues are the
    Kraus vectors.  A failed check raises :class:`NotCP`, since Choi
    positivity is complete positivity.  ``spectra`` passes in
    :func:`choi_spectra` of the same blocks when the caller already has it.
    """
    sizes = source.block_sizes
    mats = [as_matrix(c) for c in chois]
    h = mats[0].shape[0] // sizes[0]
    for c in mats:
        _hermiticity_gate(hermitian_residual(c, tol.residual_tol), tol)
    if spectra is None:
        spectra = choi_spectra(mats)
    cut = choi_cut(choi_edges(spectra), tol)
    rows = [kraus_block(n, h, vals, vecs, cut) for n, (vals, vecs) in zip(sizes, spectra)]
    return KrausDilation(tuple(r.shape[1] for r in rows),
                         np.vstack([r.reshape(n * r.shape[1], h) for n, r in zip(sizes, rows)]))


def _hermiticity_gate(herm_res: float, tol: Tolerance) -> None:
    if herm_res > tol.residual_tol:
        raise NotCP(f"Choi matrix is not hermitian (residual {herm_res:.3e})")


def choi_edges(spectra) -> tuple[float, float]:
    """``(low, top)``: the lowest and the largest eigenvalue over the Choi
    spectra ``spectra`` (pairs from :func:`choi_spectra`), 0.0 included."""
    vals = [v for v, _ in spectra if v.size]
    return (min([float(v[0]) for v in vals] + [0.0]),
            max([float(v[-1]) for v in vals] + [0.0]))


def choi_cut(edges, tol: Tolerance = DEFAULT_TOL) -> float:
    """The positivity gate and the eigenvalue cutoff of :func:`kraus_dilation`
    on the spectral edges ``(low, top)`` of the Choi blocks
    (:func:`choi_edges`): raises :class:`NotCP` when ``low`` is below
    ``-psd_floor (1 + top)`` and returns ``rank_eps max(top, rank_eps)``."""
    low, top = edges
    # large Choi blocks accumulate eigenvalue noise proportional to their norm
    floor = tol.psd_floor * (1.0 + top)
    if low < -floor:
        raise NotCP(f"Choi eigenvalue {low:.3e} below -{floor:.3e}")
    return tol.rank_eps * max(top, tol.rank_eps)


def least_cut(edges, tol: Tolerance = DEFAULT_TOL) -> float:
    """The least cutoff :meth:`KrausTransfer.compose` can take over
    components with the spectral edges ``edges``: its top is at least the
    smallest component top."""
    return tol.rank_eps * max(min(top for _, top in edges), tol.rank_eps)


def kraus_block(n: int, h: int, vals, vecs, cut: float) -> np.ndarray:
    """The (n, r, h) rows of W for one Choi block of side n h with spectrum
    ``(vals, vecs)``: entry (p, s, j) is the conjugated component (p, j) of
    the s-th Kraus vector, the eigenvectors above ``cut`` in decreasing
    eigenvalue order, canonically phased and scaled by sqrt(lambda)."""
    keep = vals > cut
    kept = vals[keep][::-1]
    kraus = _canonical_phases(vecs[:, keep][:, ::-1]) * np.sqrt(kept)
    return kraus.conj().reshape(n, h, kept.size).transpose(0, 2, 1)


@dataclass(eq=False)
class KrausRep(ChunkRep):
    """rho(x) = directsum_b x_b x I_{r_b} on a Kraus dilation space.

    ``dilation.multiplicities`` are the r_b; Kraus coordinate (b, p, s),
    p < n_b and s < r_b, has index offset_b + p r_b + s.
    ``system.coord_blocks(coords, depth, self.depth)`` gives the block stacks
    of the coordinate rows in the dilated algebra (``depth`` is None on
    finite systems).  The commutant of rho is directsum_b I_{n_b} x M_{r_b}:
    a basis seed moves a level only by unitaries of that form (see
    :func:`~covdilate.covariant.two_step`), so every rep the package builds
    is in these coordinates.

    For X : C^h -> K let Y_b be the r_b x (n_b h) matrix with Y_b[s, q h +
    j] = X[(b, q, s), j] (:meth:`frames`).  Three identities put the
    extension-step constructions in the multiplicity spaces C^{r_b}:

    * Span.  The matrix unit E^b_pq maps column j of X to e_p x Y_b[:, q h
      + j] inside block b, so over the matrix-unit basis the spanning set
      [rho(b_1) X, ..., rho(b_N) X] is exactly directsum_b I_{n_b} x Y_b,
      and span rho(A) X = directsum_b C^{n_b} x range Y_b.  Its singular
      values are those of the Y_b, each repeated n_b times, so the rank rule
      of :func:`~covdilate.numerics.orthonormal_span` on the spanning set is
      that of :func:`~covdilate.numerics.ranked_svds` on the Y_b.
    * Restriction.  With U_b orthonormal columns spanning range Y_b and
      B = directsum_b I_{n_b} x U_b, B* rho(x) B = directsum_b x_b x U_b*
      U_b = directsum_b x_b x I_{rank_b}: the restriction to the span is
      the KrausRep with multiplicities rank_b (:func:`kraus_span`), and so
      is the restriction in the basis B G* for any unitary G = directsum_b
      I_{n_b} x H_b of its commutant.
    * Intertwiner.  For two such reps of one algebra (every extension
      step's rep) the spanning sets are Z_i = directsum_b I_{n_b} x
      Y_{i,b}.  A thin SVD of each Y_{1,b} tensored with I_{n_b} is one of
      Z_1, with the same singular values, so pinv(Z_1) = directsum_b I_{n_b}
      x pinv(Y_{1,b}) when every cutoff is taken relative to the largest
      singular value over all blocks, and Z_2 pinv(Z_1) = directsum_b
      I_{n_b} x Y_{2,b} pinv(Y_{1,b}).

    A clause that applies rho(a) to a fixed frame needs no image:
    :meth:`act` (the frame kernel) gives rho(a) X and X rho(a) by
    contracting x_b against the Kraus rows of X block by block.  The chain
    sweeps and the extension step's invariance gate go through it.
    """

    system: object
    depth: Optional[int]
    dilation: KrausDilation

    @property
    def dim(self) -> int:
        return self.dilation.dim

    @property
    def max_depth(self):
        return self.depth

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.system.algebra_view(self.depth).block_sizes

    @cached_property
    def layout(self) -> list:
        """Per block b the triple (n_b, r_b, range of the Kraus coordinates
        (b, p, s))."""
        sizes, mults = self.block_sizes, self.dilation.multiplicities
        return list(zip(sizes, mults, block_slices(n * r for n, r in zip(sizes, mults))))

    def frames(self, x) -> list[np.ndarray]:
        """The r_b x (n_b h) matrices Y_b of X, one per block."""
        h = x.shape[1]
        return [x[s].reshape(n, r, h).transpose(1, 0, 2).reshape(r, n * h)
                for n, r, s in self.layout]

    def images(self, coords, depth) -> np.ndarray:
        m = len(coords)
        blocks = self.system.coord_blocks(coords, depth, self.depth)
        out = np.zeros((m, self.dim, self.dim), dtype=complex)
        for b, (n, r, s) in zip(blocks, self.layout):
            # the diagonal block of x_b (x) I_r, viewed as (m, n, r, n, r): a
            # view, since reshaping only splits axes
            block = out[:, s, s].reshape(m, n, r, n, r)
            idx = np.arange(r)
            block[:, :, idx, :, idx] = b
        return out

    def act(self, coords, depth, frame, right: bool = False) -> np.ndarray:
        """rho(a) X, or X rho(a) with ``right``, for the coordinate rows a and
        a fixed frame X: the (m, dim, c) (or (m, c, dim)) stack, without the
        dim x dim images.

        On the Kraus rows s_b of X, viewed as the (n_b, r_b c) matrix X_b,
        the image acts as a_b X_b, since a_b x I_{r_b} moves only the index
        p of row (p, s); X rho(a) is (rho(a)^T X^T)^T, the same contraction
        with a_b^T.  That costs sum_b n_b^2 r_b c per row against dim^2 c
        for the image and its product.
        """
        x = np.asarray(frame, dtype=complex)
        if right:
            x = x.T
        m, c = len(coords), x.shape[1]
        blocks = self.system.coord_blocks(coords, depth, self.depth)
        out = np.empty((m, self.dim, c), dtype=complex)
        for b, (n, r, s) in zip(blocks, self.layout):
            b = b.swapaxes(-1, -2) if right else b
            out[:, s] = np.matmul(b, x[s].reshape(n, r * c)).reshape(m, n * r, c)
        return out.swapaxes(-1, -2) if right else out


def kraus_span(rep: KrausRep, x, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """An orthonormal basis of span rep(A) X and the restriction of rep to
    the span.

    B = directsum_b I_{n_b} x U_b, U_b the canonically phased left singular
    vectors that :func:`~covdilate.numerics.ranked_svds` keeps of the frame
    Y_b (see :class:`KrausRep`).  The restriction B* rep(x) B is
    directsum_b x_b x I_{rank_b}, returned as its :class:`KrausDilation`,
    whose dilation map B* X = (directsum_b I_{n_b} x U_b*) X has Kraus
    coordinates.  Returns ``(B, dilation)``.
    """
    h = x.shape[1]
    frames = rep.frames(x)
    cols, rows, ranks = [], [], []
    for (n, r, s), y, (u, sv, _) in zip(rep.layout, frames, ranked_svds(frames, tol)):
        k = len(sv)
        u = _canonical_phases(u)
        col = np.zeros((rep.dim, n * k), dtype=complex)
        col[s] = eye_kron(n, u)          # I_{n_b} x U_b on the Kraus coordinates of b
        cols.append(col)
        rows.append((u.conj().T @ y).reshape(k, n, h).transpose(1, 0, 2).reshape(n * k, h))
        ranks.append(k)
    return np.hstack(cols), KrausDilation(tuple(ranks), np.vstack(rows))


def kraus_direct_sum(system, depth, parts, isometry) -> KrausRep:
    """The direct sum of the KrausReps ``parts`` (one system and depth, as
    the GNS step builds them) as one KrausRep, with
    ``isometry`` W : C^h -> directsum_s K_s in summand-major coordinates.

    Taking the copies of each block summand by summand gives multiplicities
    r_b = sum_s r_sb, and the dilation map is W with its rows permuted into
    these block-major coordinates.
    """
    sizes = system.algebra_view(depth).block_sizes
    # per summand and block, the (n_b, r_sb) summand-major indices
    index = [[np.arange(part.start, part.stop)[s].reshape(n, r) for n, r, s in p.layout]
             for p, part in zip(parts, block_slices(p.dim for p in parts))]
    # block-major order: block b, row i < n_b, then the summands' copies in turn
    perm = np.concatenate([np.hstack([np.zeros((n, 0), dtype=int)] + [ix[b] for ix in index])
                           .reshape(-1) for b, n in enumerate(sizes)])
    mults = tuple(sum(p.dilation.multiplicities[b] for p in parts) for b in range(len(sizes)))
    return KrausRep(system, depth, KrausDilation(mults, isometry[perm]))


@dataclass(frozen=True, eq=False)
class KrausTransfer:
    """The Kraus form of a CP map psi: A = directsum_b M_{n_b} -> directsum_c
    M_{n_c}, from which the minimal dilation of pi_hat o psi is composed for
    any :class:`KrausRep` pi_hat of the target (:meth:`compose`).

    Each component psi_c: A -> M_{n_c} has the Choi blocks C_bc =
    [psi_c(E^b_pq)]_pq of side n_b n_c.  A chain dilates phi_k = pi_hat_(k-1)
    o psi at every level k >= 1 with the same psi (the transfer tau,
    followed on the tower by the embedding into the level's stage), so one
    Kraus form serves every level, and on the tower level 0 too, whose pi is
    a KrausRep (a pi deeper than the working stage takes a form of its own).
    The form holds the gate numbers of the C_bc and their kept Kraus data,
    not their spectra:

    * ``hermiticity[c][b]``: :func:`~covdilate.numerics.hermitian_residual`
      of C_bc against ``residual_tol``;
    * ``edges[c]``: :func:`choi_edges` over the C_bc of component c;
    * ``kraus[c][b]``: the eigenvalues of C_bc above :func:`least_cut` of
      all the edges, in decreasing order, with the (n_b, m, n_c) rows of
      their Kraus vectors (:func:`kraus_block`).  Every cutoff of
      :meth:`compose` is at least that one, so what it keeps is a prefix.

    :func:`transfer_kraus` reads them off the eigendecomposed Choi blocks
    (the finite backend); on the tower the Choi block of tau_phi is rho^T
    (x) n Omega Omega* (x) I_M, and ``TowerSystem.transfer_kraus`` takes all
    three from one k x k ``eigh`` of the density rho (see :mod:`~covdilate.tower`),
    with the Choi route kept as its test oracle.

    Composition rule.  Let pi_hat(y) = directsum_c y_c x I_{r_c} on C^h,
    h = sum_c n_c r_c, and let W_c: C^{n_c} -> directsum_b
    C^{n_b} x C^{m_bc} be the Kraus dilation of psi_c (the rows
    ``kraus[c][b]`` above the cutoff below), rho_c(x) = directsum_b x_b x
    I_{m_bc}.  Then psi_c(x) x I_{r_c} = (W_c x I)* (rho_c(x) x I) (W_c x I),
    so with V = directsum_c W_c x I_{r_c} and P the permutation of the rows
    ((c, b, p, s), t) to the block-major Kraus coordinates (b, p, (c, s, t)),

        phi(x) = pi_hat(psi(x)) = W* rho(x) W,   W = P V,
        rho(x) = directsum_b x_b x I_{m_b},    m_b = sum_c m_bc r_c.

    * Choi blocks and gates.  Choi_b(phi) = [phi(E^b_pq)]_pq is
      directsum_c C_bc x I_{r_c} up to a permutation of its rows and
      columns, a unitary similarity of side n_b h.  Hence its
      spectrum is that of the C_bc with r_c > 0, each value repeated r_c
      times: :func:`choi_cut` on the edges of those components is the
      positivity gate and the cutoff of :func:`kraus_dilation` on
      Choi_b(phi), the same decision up to eigenvalue round-off.  In
      particular the global top is the top over the components with r_c > 0
      (a component holding a larger value but r_c = 0 does not enter), so
      the keep set, every m_b and the dilation dimension are those of the
      Choi route.  The spectral norm is
      unitarily invariant and takes the max over a direct sum, so
      ||Choi_b(phi) - Choi_b(phi)*|| / (1 + ||Choi_b(phi)||) = max_c ||C_bc -
      C_bc*|| / (1 + max_c ||C_bc||) <= max_c hermitian_residual(C_bc) over
      r_c > 0: gating each such C_bc passes every level's hermiticity gate.
      Both gates therefore rest on psi's Choi blocks alone, and are
      decided once per chain and component.  For a
      transfer that ``verify_strategy`` certified, the positivity gate
      cannot fire at any level: the embedding is a unital *-homomorphism
      (x -> x (x) 1 on the tower), so the C_bc together have the spectrum
      of Choi(tau) (on the tower each value k times), which that check
      holds above ``-psd_floor``, inside the level's ``-psd_floor (1 +
      top)``.  Hermiticity is not part of ``verify_strategy``; the gate
      above checks it.
    * Minimality.  W_c is minimal: its m_bc Kraus vectors are orthogonal
      eigenvectors, so each frame Y^c_b of W_c (see :class:`KrausRep`) has
      full row rank m_bc.  The frame of block b of P V is directsum_c Y^c_b
      x I_{r_c} up to permutations (row (c, s, t) meets only the columns
      (q, (c, i, t))), of rank sum_c m_bc r_c = m_b.  By the span identity
      of :class:`KrausRep`, span rho(A) W is the whole dilation space.
    """

    source: FiniteDimCStarAlgebra
    target_sizes: tuple[int, ...]
    hermiticity: tuple     # [c][b]: hermitian residual of C_bc
    edges: tuple           # [c]: choi_edges of the C_bc
    kraus: tuple           # [c][b]: (decreasing eigenvalues, Kraus rows) of C_bc
    tol: Tolerance

    def compose(self, rep: KrausRep) -> KrausDilation:
        """The minimal dilation of rep o psi by the composition rule, in
        block-major Kraus coordinates ordered (c, s, t) within each block."""
        if tuple(rep.block_sizes) != self.target_sizes:
            raise ShapeMismatch(f"representation of blocks {rep.block_sizes} for a map "
                                f"into blocks {self.target_sizes}")
        h = rep.dim
        live = [(c, n_c, r_c, s) for c, (n_c, r_c, s) in enumerate(rep.layout) if r_c]
        for c, *_ in live:
            for herm_res in self.hermiticity[c]:
                _hermiticity_gate(herm_res, self.tol)
        edges = [self.edges[c] for c, *_ in live]
        cut = choi_cut((min((low for low, _ in edges), default=0.0),
                        max((top for _, top in edges), default=0.0)), self.tol)
        rows, mults = [], []
        for b, n in enumerate(self.source.block_sizes):
            parts = [np.zeros((n, 0, h), dtype=complex)]
            for c, n_c, r_c, s in live:
                # W_c x I_{r_c} on block b, rows (p, s, t), scattered into
                # the Kraus coordinates s of component c
                vals, w_c = self.kraus[c][b]
                m = np.count_nonzero(vals > cut)
                part = np.zeros((n * m * r_c, h), dtype=complex)
                part[:, s] = kron_eye(w_c[:, :m].reshape(n * m, n_c), r_c)
                parts.append(part.reshape(n, m * r_c, h))
            block = np.concatenate(parts, axis=1)
            mults.append(block.shape[1])
            rows.append(block.reshape(n * block.shape[1], h))
        return KrausDilation(tuple(mults), np.vstack(rows))


def transfer_kraus(system, tau, depth, at, tol: Tolerance = DEFAULT_TOL) -> KrausTransfer:
    """The :class:`KrausTransfer` of psi by the Choi route: tau on the basis
    at ``depth``, its values taken as elements of the algebra at depth
    ``at`` (the system's embedding on the tower), and one ``eigh`` per Choi
    block.  ``tau.rows`` gives the values on the matrix units and
    ``system.coord_blocks`` their block stacks.  The finite backend takes
    this route; on the tower it is the oracle of the closed form."""
    source = system.algebra_view(depth)
    values, value_depth = tau.rows(np.eye(source.dim, dtype=complex), depth)
    blocks = system.coord_blocks(values, value_depth, at)
    chois = [unit_image_chois(source, stack, stack.shape[-1]) for stack in blocks]
    spectra = [choi_spectra(cs) for cs in chois]
    edges = tuple(choi_edges(sp) for sp in spectra)
    floor = least_cut(edges, tol)
    kraus = tuple(tuple((vals[vals > floor][::-1], kraus_block(n, h, vals, vecs, floor))
                        for n, (vals, vecs) in zip(source.block_sizes, sp))
                  for sp, h in zip(spectra, (stack.shape[-1] for stack in blocks)))
    return KrausTransfer(
        source, tuple(stack.shape[-1] for stack in blocks),
        tuple(tuple(hermitian_residual(c, tol.residual_tol) for c in cs) for cs in chois),
        edges, kraus, tol)


def stinespring_gram(source: FiniteDimCStarAlgebra, phi_unit_images,
                     inner_dim: int) -> np.ndarray:
    """Gram form <a x h, b x h'> = <phi(a* b) h, h'> over (matrix units) x H.

    Reference route only: :func:`kraus_dilation` reads the same data off the
    Choi blocks, and the differential tests compare the two.
    ``phi_unit_images[i]`` is the ``inner_dim x inner_dim`` matrix phi(b_i).
    Matrix-unit products make the form sparse: E_{p qi}* E_{p qj} = E_{qi qj}
    inside one block and zero across blocks.
    """
    n = source.dim
    h = inner_dim
    g = np.zeros((n * h, n * h), dtype=complex)
    for b, nb in enumerate(source.block_sizes):
        for p in range(nb):
            for qi in range(nb):
                i = source.unit_index(b, p, qi)
                for qj in range(nb):
                    j = source.unit_index(b, p, qj)
                    g[i * h:(i + 1) * h, j * h:(j + 1) * h] = \
                        phi_unit_images[source.unit_index(b, qi, qj)]
    return g


@dataclass(frozen=True)
class StinespringData:
    rep: Representation
    isometry: np.ndarray        # W : H -> K
    dilation_dim: int
    isometry_residual: float    # ||W* W - I||
    dilation_residual: float    # max_a ||W* rho(a) W - phi(a)||
    minimality_rank: int        # dim span rho(A) W H

    @property
    def minimal(self) -> bool:
        return self.minimality_rank == self.dilation_dim


def stinespring_minimal(phi: CPMap, tol: Tolerance = DEFAULT_TOL) -> StinespringData:
    """Minimal Stinespring dilation of a unital CP map into B(H).

    K = directsum_b C^{n_b} x C^{r_b} with r_b the rank of the b-th Choi
    block, rho acts by a -> directsum_b a_b x I_{r_b}, and W stacks the Kraus
    vectors (:func:`kraus_dilation`).
    """
    if len(phi.target.block_sizes) != 1:
        raise ShapeMismatch("phi must map into a full operator algebra B(H)")
    chois = choi_blocks(phi)
    spectra = choi_spectra(chois)
    cp = CompletePositivityReport(tuple(float(vals[0]) for vals, _ in spectra),
                                  tol.psd_floor)
    if not cp.passed:
        raise NotCP(f"min Choi eigenvalue {cp.min_eig:.3e}")
    h = phi.target.block_sizes[0]
    unit_res = residual(phi(phi.source.unit()).full_matrix(), np.eye(h))
    if unit_res > tol.residual_tol:
        raise NotUnital(f"phi(1) = I fails by {unit_res:.3e}")

    src = phi.source
    dil = kraus_dilation(src, chois, tol, spectra)
    rho = Representation.from_multiplicities(src, dil.multiplicities)
    w = dil.isometry
    rank = dil.dim

    iso_res = residual(w.conj().T @ w, np.eye(h))
    (dil_res,) = basis_sweep(src.dim, lambda c: (c,),
                             lambda c: (w.conj().T @ rho.images(c) @ w,
                                        (c @ phi.matrix.T).reshape(len(c), h, h)))
    span_cols = stack_images(src.dim, rho.images, w) if rank else w
    return StinespringData(rho, w, rank, float(iso_res), float(dil_res),
                           svd_rank(span_cols, tol))
