"""Numerical unitary-equivalence certificates.

Uniqueness statements in this theory are all anchored: the intertwiner is
required to fix the original space (or source space) pointwise.  Under that
anchor equivalence is decidable by Gram comparison on the canonical
spanning sets, so each certifier either constructs the intertwiner by least
squares and measures every declared relation, or produces a quantitative
failure witness recomputed from the defining data rather than from the
constructed spaces.  Unanchored equivalence is never searched for; when the
construction succeeds but a relation misses the threshold the verdict is
``inconclusive``.

The step and chain intertwiners are least squares in the Kraus
multiplicity spaces; the chain intertwiner is the block operator of its
level maps over the chain blocks.  The dilation intertwiner of two records
in Schaffer form is forced copy by copy (the uniqueness of minimal
isometric dilations, proved in :mod:`covdilate.dilation`): u = E2 E1* on
the source blocks and P2 pinv(P1) on every copy, a block operator read off
the pivots of the two power orbits, whose relations are each reduced per
component of their block pattern.  Its ``fixes_source``, u E1 = E2, is read
off u's source blocks, E2's identity blocks in E1's columns: exactly 0.0,
with no product and no norm.  Least squares on the dense orbits remains
for records whose stored blocks are not in that form, and there
``fixes_source`` is computed.

Every ``representation_intertwined`` relation, u rep1(a) = rep2(a) u, is
valued by :func:`~covdilate.covariant.relation_values`, the one evaluator
of the relation clauses: the projection bound on u's stored blocks when
both reps have factor forms (on the tower: the Kraus reps of the steps and
chains, and the source, shifted and restricted parts of the dilation
records) and it is at or below the threshold, else the exact value of its
basis sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covariant import HBExtension, frame_rank, relation_values, span_frame, usable_depth
from .cpmaps import unit_image_chois
from .dilation import DilationRecord
from .errors import LevelMismatch, SpanDeficient
from .extension import ExtensionChain
from .numerics import (DEFAULT_TOL, BlockOperator, Tolerance, UpperBound, block_diag,
                       block_pinv, eye_kron, ranked_svds, residual, spectral_norm, svd_pinv,
                       svd_rank)

EQUIV_THRESHOLD = 1e-7
DILATION_THRESHOLD = 1e-6
WITNESS_FACTOR = 10.0


@dataclass(frozen=True)
class GramWitness:
    """A concrete Gram mismatch certifying inequivalence.

    The two values are recomputed from the defining map data (representation
    and transfer operators), not from the constructed dilation spaces.
    """

    level: int
    element: str          # description of b_i* b_j
    left_vector: int      # column index into the inner space
    right_vector: int
    value_a: complex
    value_b: complex

    @property
    def mismatch(self) -> float:
        return abs(self.value_a - self.value_b)

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "element": self.element,
            "left_vector": self.left_vector,
            "right_vector": self.right_vector,
            "value_a": [self.value_a.real, self.value_a.imag],
            "value_b": [self.value_b.real, self.value_b.imag],
            "mismatch": self.mismatch,
        }


@dataclass
class EquivalenceCertificate:
    """A verdict with the residuals it was decided on.

    Relation residuals are computed against ``threshold``: one above it is
    exact, one at or below it may be an upper bound on the exact value, and
    ``as_dict`` lists those under ``residual_kinds``.
    """

    verdict: str                      # equivalent | inequivalent | inconclusive
    threshold: float
    residuals: dict = field(default_factory=dict)
    intertwiner: Optional[np.ndarray] = None      # a BlockOperator for block records
    witness: Optional[GramWitness] = None
    note: str = ""

    @property
    def max_residual(self) -> float:
        """The largest residual; an :class:`UpperBound` when any residual is
        one, since a max over exact values and upper bounds bounds the exact
        max."""
        worst = max(self.residuals.values(), default=0.0)
        if any(isinstance(v, UpperBound) for v in self.residuals.values()):
            return UpperBound(worst)
        return worst

    def as_dict(self) -> dict:
        d = {"verdict": self.verdict, "threshold": self.threshold,
             "residuals": {k: float(v) for k, v in self.residuals.items()}}
        bounds = {k: "bound" for k, v in self.residuals.items() if isinstance(v, UpperBound)}
        if bounds:
            d["residual_kinds"] = bounds
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        if self.note:
            d["note"] = self.note
        return d


def _verdict(residuals: dict, threshold: float, intertwiner,
             note: str = "") -> EquivalenceCertificate:
    if max(residuals.values(), default=0.0) <= threshold:
        return EquivalenceCertificate("equivalent", threshold, residuals,
                                      intertwiner, None, note)
    return EquivalenceCertificate("inconclusive", threshold, residuals,
                                  None, None,
                                  note or "intertwiner constructed but a relation "
                                          "misses the threshold")


def _require_rank(rank: int, dim: int, message: str) -> None:
    """SpanDeficient(message) unless a spanning set of rank ``rank`` spans
    dimension ``dim``."""
    if rank < dim:
        raise SpanDeficient(message.format(rank=rank, dim=dim))


def _frame_map(frame1, frame2, tol: Tolerance) -> tuple[list, tuple, int]:
    """u = x2 pinv(x1) for two spanning sets given by
    :func:`~covdilate.covariant.span_frame`, as its factors, with the rank
    of x1, from one SVD per frame of x1.

    Over one block layout, u = directsum_b I_{n_b} x Z_b with Z_b = Y2_b
    pinv(Y1_b) (see :class:`~covdilate.cpmaps.KrausRep`), returned as
    ``([Z_b], sizes)``; frames over different layouts are first written out
    as their spanning sets, one factor of size one.
    """
    if frame1[1] != frame2[1]:
        frame1, frame2 = _spanning_set(frame1), _spanning_set(frame2)
    (ys1, sizes), (ys2, _) = frame1, frame2
    svds = ranked_svds(ys1, tol)
    maps = [y2 @ svd_pinv(*svd) for y2, svd in zip(ys2, svds)]
    return maps, sizes, sum(n * len(s) for n, (_, s, _) in zip(sizes, svds))


def _apply_frame_map(maps, sizes, x) -> np.ndarray:
    """(directsum_b I_{n_b} x Z_b) X, block by block on the Kraus rows of X,
    without the dense map."""
    out, at = [], 0
    for n, z in zip(sizes, maps):
        rows = n * z.shape[1]
        out.append(np.matmul(z, x[at:at + rows].reshape(n, z.shape[1], x.shape[1]))
                   .reshape(n * z.shape[0], x.shape[1]))
        at += rows
    return np.vstack(out)


def _spanning_set(frame) -> tuple:
    """A frame written out as its spanning set: one frame of size one."""
    ys, sizes = frame
    return [block_diag([eye_kron(n, y) for n, y in zip(sizes, ys)])], (1,)


def _unitarity(u, threshold: float) -> dict:
    if isinstance(u, BlockOperator):
        return {"unitarity_left": residual(u.adjoint() @ u, BlockOperator.identity(u.cols),
                                           threshold),
                "unitarity_right": residual(u @ u.adjoint(), BlockOperator.identity(u.rows),
                                            threshold)}
    return {"unitarity_left": residual(u.conj().T @ u, np.eye(u.shape[1]), threshold),
            "unitarity_right": residual(u @ u.conj().T, np.eye(u.shape[0]), threshold)}


def _gram_mismatch_witness(view, depth, units_a, units_b, h: int, level: int,
                           tol: Tolerance) -> tuple[float, Optional[GramWitness]]:
    """Largest entrywise gap between the reference Gram forms of two maps,
    given by their (N, h, h) stacks of unit images on the algebra ``view``.

    The Gram form over (matrix units) x H is n_b copies of each Choi block,
    so the Choi blocks are compared instead.  The witness is the first entry,
    block-major then row-major, within 4 eps of the largest gap, so that
    exact ties are not ordered by round-off; in the Gram form that entry lies
    in the copy of row-block p = 0, whose basis element E_{0 qi} has index
    offset_b + qi.
    """
    chois_a = unit_image_chois(view, units_a, h)
    chois_b = unit_image_chois(view, units_b, h)
    diffs = [np.abs(ca - cb) for ca, cb in zip(chois_a, chois_b)]
    mismatch = max([float(d.max()) for d in diffs if d.size] + [0.0])
    if mismatch <= WITNESS_FACTOR * tol.residual_tol:
        return mismatch, None
    near = mismatch * (1.0 - 4.0 * np.finfo(float).eps)
    blk = next(b for b, d in enumerate(diffs) if d.size and d.max() >= near)
    i, j = np.unravel_index(int(np.argmax(diffs[blk] >= near)), diffs[blk].shape)
    qi, p = divmod(int(i), h)
    qj, q = divmod(int(j), h)
    off = view.coord_slices[blk].start
    bi, bj = off + qi, off + qj
    element = f"adjoint(basis[{bi}]) * basis[{bj}] at working depth {depth}" \
        if depth is not None else f"adjoint(basis[{bi}]) * basis[{bj}]"
    return mismatch, GramWitness(level, element, p, q, complex(chois_a[blk][i, j]),
                                 complex(chois_b[blk][i, j]))


def stinespring_intertwiner(ext1: HBExtension, ext2: HBExtension,
                            tol: Tolerance = DEFAULT_TOL,
                            threshold: float = EQUIV_THRESHOLD) -> EquivalenceCertificate:
    """Canonical intertwiner between two extension steps of the same data.

    Defined on the spanning set by u(rho1(a) W1 h) = rho2(a) W2 h; its
    well-definedness is the equality of the two reference Gram forms, which
    is checked first and turned into a witness on failure.
    """
    if ext1.space_dim != ext2.space_dim:
        raise LevelMismatch("extensions over different base spaces")
    system = ext1.system
    depth = ext1.working_depth
    if ext2.working_depth != depth:
        raise LevelMismatch("extensions at different working depths")

    mismatch, witness = _gram_mismatch_witness(system.algebra_view(depth), depth,
                                               ext1.phi_units(), ext2.phi_units(),
                                               ext1.space_dim, 0, tol)
    if witness is not None:
        return EquivalenceCertificate("inequivalent", threshold,
                                      {"gram_mismatch": mismatch}, None, witness)

    frame1 = span_frame(system, ext1.rho, depth, ext1.isometry)
    frame2 = span_frame(system, ext2.rho, depth, ext2.isometry)
    maps, sizes, rank1 = _frame_map(frame1, frame2, tol)
    u = block_diag([eye_kron(n, z) for n, z in zip(sizes, maps)])
    for rank, dim in ((rank1, ext1.dilation_dim), (frame_rank(frame2, tol), ext2.dilation_dim)):
        _require_rank(rank, dim, "span rank {rank} below dilation dimension {dim}")
    if ext1.dilation_dim != ext2.dilation_dim:
        return EquivalenceCertificate(
            "inconclusive", threshold, {"gram_mismatch": mismatch}, None, None,
            "matching Gram forms but different dilation dimensions")

    residuals = {"gram_mismatch": mismatch, **_unitarity(u, threshold),
                 "isometry_intertwined": spectral_norm(u @ ext1.isometry - ext2.isometry)}
    (residuals["representation_intertwined"],) = relation_values(
        system, depth, threshold, (u, ext2.rho, ext1.rho, 0))
    return _verdict(residuals, threshold, u)


def chain_intertwiner(chain1: ExtensionChain, chain2: ExtensionChain,
                      tol: Tolerance = DEFAULT_TOL,
                      threshold: float = EQUIV_THRESHOLD) -> EquivalenceCertificate:
    """Blockwise intertwiner between two chains over the same pair, fixing H.

    Built level by level from the extension-step intertwiners; at the first
    level whose reference Gram forms disagree the verdict is inequivalent
    with that level's witness.
    """
    p1, p2 = chain1.pair, chain2.pair
    if chain1.n_levels != chain2.n_levels:
        raise LevelMismatch(f"{chain1.n_levels} vs {chain2.n_levels} levels")
    if p1.space_dim != p2.space_dim:
        raise LevelMismatch("chains over different spaces")
    if residual(p1.contraction, p2.contraction, tol.residual_tol) > tol.residual_tol:
        raise LevelMismatch("chains over different contractions")
    system = p1.system

    u_prev = np.eye(p1.space_dim, dtype=complex)
    blocks = [np.eye(p1.space_dim, dtype=complex)]
    residuals: dict = {}
    for k in range(chain1.n_levels):
        lv1, lv2 = chain1.levels[k], chain2.levels[k]
        depth = lv1.ext.working_depth
        h_prev = lv1.ext.space_dim
        # the second chain's map in the coordinates of the first, through u_prev
        units2 = u_prev.conj().T @ lv2.ext.phi_units() @ u_prev
        mismatch, witness = _gram_mismatch_witness(system.algebra_view(depth), depth,
                                                   lv1.ext.phi_units(), units2,
                                                   h_prev, k, tol)
        if witness is not None:
            note = "" if k == 0 else f"levels below {k} already intertwined"
            return EquivalenceCertificate("inequivalent", threshold,
                                          {f"level{k}_gram_mismatch": mismatch},
                                          None, witness, note)
        maps, sizes, rank1 = _frame_map(
            span_frame(system, lv1.ext.rho, depth, lv1.ext.isometry),
            span_frame(system, lv2.ext.rho, depth, lv2.ext.isometry @ u_prev), tol)
        _require_rank(rank1, lv1.ext.dilation_dim, f"level {k} span deficient")
        u_def = lv2.defect_basis.conj().T @ _apply_frame_map(maps, sizes, lv1.defect_basis)
        residuals[f"level{k}_unitarity"] = residual(
            u_def.conj().T @ u_def, np.eye(u_def.shape[1]), threshold)
        blocks.append(u_def)
        u_prev = u_def

    # block-diagonal over the chain blocks: I on H, then each level's map
    u = BlockOperator(chain2.block_dims, chain1.block_dims,
                      {(k, k): b for k, b in enumerate(blocks)})
    residuals.update(_unitarity(u, threshold))
    residuals["fixes_H"] = spectral_norm(u.blocks[0, 0] - np.eye(p1.space_dim))
    residuals["contraction_intertwined"] = residual(u @ chain1.v, chain2.v @ u, threshold)
    d = usable_depth(system, [chain1.rho, chain2.rho], 0, p1.depth)
    (residuals["representation_intertwined"],) = relation_values(
        system, d, threshold, (u, chain2.rho, chain1.rho, 0))
    return _verdict(residuals, threshold, u)


def dilation_intertwiner(rec1: DilationRecord, rec2: DilationRecord,
                         tol: Tolerance = DEFAULT_TOL,
                         threshold: float = DILATION_THRESHOLD) -> EquivalenceCertificate:
    """Intertwiner between two minimal dilations of the same source pair.

    u is defined by u(W1^n k) = W2^n k on the source space; minimality of
    both records is a precondition and its failure is an error, not an
    inequivalence verdict.  Two records in Schaffer form over the same
    source blocks give u block by block from their pivots (see
    :mod:`covdilate.dilation`); any other pair, or a pivot that falls
    short, gives u by least squares on the dense power orbits.
    """
    s1, s2 = rec1.source_pair, rec2.source_pair
    if rec1.copies != rec2.copies:
        raise LevelMismatch("records with different numbers of copies")
    if s1.space_dim != s2.space_dim:
        raise LevelMismatch("records over different source spaces")
    if residual(s1.contraction, s2.contraction, tol.residual_tol) > tol.residual_tol:
        raise LevelMismatch("records over different source contractions")

    u = _echelon_map(rec1, rec2, tol)
    pivoted = u is not None
    if not pivoted:
        u = _least_squares_map(rec1, rec2, tol)
    if rec1.total_dim != rec2.total_dim:
        return EquivalenceCertificate("inconclusive", threshold, {}, None, None,
                                      "minimal records of different dimension")

    # a pivot-built u holds E2's identity blocks in E1's columns, so u E1 = E2 exactly
    fixes = 0.0 if pivoted else spectral_norm(u @ rec1.source_embed - rec2.source_embed)
    residuals = {**_unitarity(u, threshold), "fixes_source": fixes,
                 "dilation_intertwined": residual(u @ rec1.w, rec2.w @ u, threshold)}
    system = s1.system
    d = usable_depth(system, [rec1.eta, rec2.eta], 0, s1.depth)
    (residuals["representation_intertwined"],) = relation_values(
        system, d, threshold, (u, rec2.eta, rec1.eta, 0))
    return _verdict(residuals, threshold, u)


def _echelon_map(rec1: DilationRecord, rec2: DilationRecord, tol: Tolerance):
    """u = E2 E1* on the source blocks and P2 pinv(P1) on every copy, a block
    operator from the rows of ``rec2`` to the columns of ``rec1``, with the
    rank and the pseudo-inverse of P1 from :meth:`~covdilate.dilation.Echelon.pivot_svds`
    (u_c = P2 B_c diag(1/s_c) from the factors a record of ``schaffer_dilate``
    holds, else one SVD per component) and whether P2 is onto from
    :meth:`~covdilate.dilation.Echelon.onto` (the bounds an explicit record
    holds for its defect row, else one SVD per component); None unless both
    records are in Schaffer form over the same source blocks and every
    pivot is onto."""
    ech1, ech2 = rec1.echelon, rec2.echelon
    if ech1 is None or ech2 is None or ech1.pivot.cols != ech2.pivot.cols:
        return None
    svds1 = ech1.pivot_svds(tol, compute_uv=True)
    if not (ech1.spans(svds1, tol) and ech2.onto(tol)):
        return None
    u_c = ech2.pivot @ block_pinv(ech1.pivot, svds1)
    # E1 and E2 hold one identity block per source block, so E2 E1* is E2's
    # identity blocks moved to the columns of E1's
    at1 = {k: i for i, k in rec1.source_embed.blocks}
    blocks = {(i, at1[k]): b for (i, k), b in rec2.source_embed.blocks.items()}
    for parts1, parts2 in zip(ech1.parts, ech2.parts):
        blocks.update({(parts2[a], parts1[b]): x for (a, b), x in u_c.blocks.items()})
    return BlockOperator(rec2.w.rows, rec1.w.rows, blocks)


def _least_squares_map(rec1: DilationRecord, rec2: DilationRecord,
                       tol: Tolerance) -> np.ndarray:
    """u = x2 pinv(x1) for the dense power orbits x1, x2, with the rank and
    the pseudo-inverse of x1 from one SVD and the rank of x2 from another;
    SpanDeficient when either record is not minimal."""
    x1, x2 = (np.hstack(rec.source_orbit) for rec in (rec1, rec2))
    svd1 = ranked_svds([x1], tol)[0]
    _require_rank(len(svd1[1]), rec1.total_dim, "first record not minimal: rank {rank} of {dim}")
    _require_rank(svd_rank(x2, tol), rec2.total_dim,
                  "second record not minimal: rank {rank} of {dim}")
    return x2 @ svd_pinv(*svd1)
