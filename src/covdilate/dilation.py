"""Minimal isometric dilations and the two routes to a unitary dilation.

``schaffer_dilate`` builds the truncated lower corner of the classical
Schaffer matrix for a covariant pair: ``T`` in the corner, the defect of
``T`` below it, then an identity subdiagonal through ``copies`` copies of
the defect space, with the last copy mapping to nothing.  Feeding it the
assembled coisometric extension of a pair produces a unitary dilation on
the interior of the truncation window (``unitary_dilate``), and
``explicit_matricial_unitary`` assembles the same object directly from the
two-sided block form, giving an independent construction the equivalence
module can compare against.

Block layout.  Both dilation operators are
:class:`~covdilate.numerics.BlockOperator` s that store only their nonzero
blocks, on a finer layout than the named blocks of the record.  For
``schaffer_dilate`` the source blocks are those of ``T`` (one block for a
plain matrix, the chain blocks for an assembled chain).  The defect
(I - T*T)^(1/2) is block-diagonal over the groups of source blocks that
share a row block of T (for a chain: {H, d_0}, then each d_k), so every
copy of the defect space splits into one block D_c per group, with
orthonormal basis B_c of ran Delta_c; one singular-value cutoff over all
groups keeps the total rank that of the dense defect::

             src blocks      copy-1    copy-2   ...
    src    [ T                                    ]
    copy-1 [ B_c* Delta_c                         ]   (group c's columns)
    copy-2 [                 I (per D_c)          ]
    ...                                  ...

``explicit_matricial_unitary`` orders the chain blocks d_(n-1), ..., d_0, H
and splits every copy into the summands of D_V = delta(H) + q_0 + ...; U
carries V's blocks, the defect row's blocks below them and an identity per
summand down the copies.  The representations (``eta``, ``sigma``) are
direct sums over the same fine blocks.

The covariance, isometry and interior-unitarity clauses reduce per
connected component of the block pattern (exact, see BlockOperator): the
components of W are {src rows of group c and its copy-1 block; group c's
columns} and {copy-(j+1) part c; copy-j part c}, so no clause forms an
operator of the total side.  The compressions act on the source space
through the embedding, and the minimality rank, the boundary notes and
the intertwiners of :mod:`covdilate.equivalence` stay dense: the first
two are one total-side rank and two small boundary blocks, and an
intertwiner built by least squares has no block pattern to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .covariant import (CovariantPair, DirectSumRep, RestrictedRep,
                        ShiftedRep, defect_floor, invariance_residual,
                        rep_and_shifted, shifted_restrictions, usable_depth)
from .errors import (DepthExceeded, NotContraction, ShapeMismatch,
                     StrategyInvalid)
from .extension import (ExtensionChain, coisometric_extend,
                        defect_decomposition)
from .numerics import (DEFAULT_TOL, BlockOperator, Tolerance, as_blocks,
                       basis_sweep, block_slices, orthonormal_spans, psd_sqrt,
                       residual, spectral_norm, svd_rank)
from .report import ClauseReport, clause

BOUNDARY_NOTE = ("unitarity is asserted on the interior window only; the two "
                 "truncation-boundary blocks are reported separately and never "
                 "silently passed")
MINIMALITY_NOTE = ("minimality is the invariant-subspace form: the smallest "
                   "subspace containing the source space and invariant under the "
                   "dilation is everything")


@dataclass(eq=False)
class DilationRecord:
    """A dilation with its block-index bookkeeping.

    ``block_index`` assigns each block its two-sided position: negative
    indices for the extension defects, 0 for the source corner, positive for
    the defect copies of the dilation.
    """

    kind: str                       # isometric | unitary-composed | unitary-explicit
    block_names: list[str]
    block_dims: list[int]
    block_index: list[int]
    eta: object                     # direct sum over w's blocks
    w: BlockOperator                # the dilation operator, on the fine block layout
    source_pair: CovariantPair
    source_embed: np.ndarray        # ambient x source_dim, isometric
    copies: int
    origin_pair: Optional[CovariantPair] = None   # the original (pi, T) when composed
    origin_embed: Optional[np.ndarray] = None
    chain: Optional[ExtensionChain] = None
    report: Optional[ClauseReport] = None
    boundary_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    boundary_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def block_ranges(self) -> dict[str, slice]:
        """The index range of each named block."""
        return dict(zip(self.block_names, block_slices(self.block_dims)))

    @cached_property
    def source_orbit(self) -> list:
        """[W^n E for 0 <= n <= copies], E the source embedding; built once."""
        return power_orbit(self.w, self.source_embed, self.copies)

    def index_table(self) -> list[dict]:
        return [{"name": n, "index": i, "dim": d, "offset": s.start}
                for (n, s), i, d in zip(self.block_ranges.items(), self.block_index,
                                        self.block_dims)]


def schaffer_dilate(pair: CovariantPair, copies: int,
                    tol: Tolerance = DEFAULT_TOL) -> DilationRecord:
    """Truncated minimal isometric dilation of a covariant pair, on the block
    layout of its contraction (see the module docstring)."""
    if copies < 1:
        raise StrategyInvalid("at least one defect copy required")
    system = pair.system
    if system.is_tower:
        if pair.depth is None:
            raise DepthExceeded("tower pairs need an explicit check depth")
        if pair.depth + copies > system.d_max:
            raise DepthExceeded(
                f"depth budget {pair.depth} + {copies} exceeds d_max {system.d_max}")
    if pair.norm() > 1.0 + tol.rank_eps:
        raise NotContraction(f"||T|| = {pair.norm():.12f} exceeds 1")

    t = as_blocks(pair.contraction)
    # one source summand per block of T
    src = pair.rep.parts if len(t.cols) > 1 else (pair.rep,)
    if [p.dim for p in src] != list(t.cols):
        raise ShapeMismatch("representation summands do not match the blocks of T")
    groups = _defect_groups(t)
    floor = defect_floor(tol)
    deltas = []
    for g in groups:
        tg = t.select(cols=g)
        n = sum(tg.cols)
        deltas.append(psd_sqrt(np.eye(n, dtype=complex) - (tg.adjoint() @ tg).dense(), floor))
    kept = [(g, b, dl) for g, b, dl in zip(groups, orthonormal_spans(deltas, tol), deltas)
            if b.shape[1]]

    n_src, n_kept = len(t.cols), len(kept)
    ranks = [b.shape[1] for _, b, _ in kept]
    blocks = dict(t.blocks)
    for c, (g, b, dl) in enumerate(kept):
        head = b.conj().T @ dl
        for j, cols in zip(g, block_slices([t.cols[j] for j in g])):
            blocks[n_src + c, j] = head[:, cols]
        for n in range(1, copies):
            blocks[n_src + n * n_kept + c, n_src + (n - 1) * n_kept + c] = \
                np.eye(ranks[c], dtype=complex)
    fine = list(t.cols) + ranks * copies
    w = BlockOperator(fine, fine, blocks)

    def group_rep(g):
        return src[g[0]] if len(g) == 1 else DirectSumRep(tuple(src[j] for j in g))

    parts = list(src) + [RestrictedRep(ShiftedRep(group_rep(g), system, n), b)
                         for n in range(1, copies + 1) for g, b, _ in kept]
    eta = DirectSumRep(tuple(parts))
    h = pair.space_dim
    dims = [h] + [sum(ranks)] * copies
    at = block_slices(dims)
    embed = np.eye(sum(dims), h, dtype=complex)
    names = ["H"] + [f"copy-{j}" for j in range(1, copies + 1)]
    index = list(range(0, copies + 1))
    last = np.arange(at[-1].start, at[-1].stop)
    return DilationRecord("isometric", names, dims, index, eta, w, pair, embed,
                          copies, origin_pair=pair, origin_embed=embed,
                          boundary_rows=np.zeros(0, dtype=int), boundary_cols=last)


def _defect_groups(t: BlockOperator) -> list:
    """The column blocks of T grouped by shared row blocks: the components
    of T's pattern, and a group of its own for each zero column block.
    (I - T*T) is block-diagonal over these groups."""
    groups = [cols for _, cols in t.components()]
    seen = {j for g in groups for j in g}
    groups += [[j] for j in range(len(t.cols)) if j not in seen]
    return sorted(groups)


def _blocks_within(dims, index) -> set:
    """The blocks of the layout ``dims`` whose indices all lie in ``index``."""
    inside = np.zeros(sum(dims), dtype=bool)
    inside[index] = True
    return {k for k, sl in enumerate(block_slices(dims)) if inside[sl].all()}


def verify_isometric_dilation(rec: DilationRecord,
                              tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    """Covariance, truncated isometry, dilation identity, minimality and
    coisometry inheritance for an isometric record, against its source pair."""
    pair = rec.source_pair
    system = pair.system
    rep = ClauseReport()
    rep.notes.append(MINIMALITY_NOTE)
    t = pair.contraction
    tb = as_blocks(t)
    h = pair.space_dim
    total = rec.total_dim

    d = _covariance_clause(rep, rec, pair, "dilation/covariance",
                           "W eta(alpha(a)) = eta(a) W", tol)

    # defect-space invariance under pi o alpha^n, needed for eta's diagonal:
    # the first copy's summands (after the source ones) are the groups'
    # sources restricted to B_c, and every copy shifts the same groups
    copy_parts = rec.eta.parts[len(tb.cols):]
    if copy_parts and h:
        inv = 0.0
        for part in copy_parts[:len(copy_parts) // rec.copies]:
            for n in range(1, rec.copies + 1):
                shifted = ShiftedRep(part.inner.inner, system, n)
                dd = usable_depth(system, [pair.rep], n, pair.depth if d is None else d)
                inv = max(inv, invariance_residual(system, dd, shifted, part.basis,
                                                   tol.residual_tol))
        rep.add(clause("dilation/defect-invariant",
                       "pi(alpha^n(a)) preserves the defect space",
                       inv, tol.residual_tol))

    w = rec.w
    keep = BlockOperator.identity(w.cols, skip=_blocks_within(w.cols, rec.boundary_cols))
    rep.add(clause("dilation/isometry", "W* W = P(all copies but the truncated last)",
                   residual(w.adjoint() @ w, keep, tol.residual_tol),
                   tol.residual_tol))

    rep.add(clause("dilation/compression", "P_H W^n |H = T^n (0 <= n <= copies)",
                   _compression(rec.source_orbit, t, tol.residual_tol), tol.residual_tol))

    rank = svd_rank(np.hstack(rec.source_orbit), tol)
    rep.add(clause("dilation/minimal", "span{W^n H} = K",
                   0.0 if rank == total else 1.0, 0.5,
                   note=f"rank {rank} of {total}"))

    coiso_cond = spectral_norm(BlockOperator.identity(tb.rows) - tb @ tb.adjoint())
    if coiso_cond <= tol.residual_tol:
        res = spectral_norm((BlockOperator.identity(w.rows) - w @ w.adjoint()) @ keep)
        rep.add(clause("dilation/coisometry-inherited",
                       "(I - W W*) P(kept) = 0 when T is a coisometry",
                       res, tol.residual_tol))
    else:
        rep.notes.append(f"coisometry-inheritance clause not applicable: "
                         f"||I - T T*|| = {coiso_cond:.3e}")
    return rep


def _covariance_clause(rep: ClauseReport, rec: DilationRecord, pair: CovariantPair,
                       name: str, formula: str, tol: Tolerance) -> Optional[int]:
    """Add the clause W eta(alpha(a)) = eta(a) W for the record's operator and
    representation; return the basis depth it was checked at."""
    system = pair.system
    d = usable_depth(system, [rec.eta], 1, pair.depth)
    if system.is_tower and d == 0:
        rep.notes.append("covariance window reduced to basis depth 0 by the "
                         "truncation budget (scalars only)")
    (cov,) = basis_sweep(system.basis_size(d), rep_and_shifted(system, rec.eta, d),
                         lambda ea, eaa: (rec.w @ eaa, ea @ rec.w),
                         threshold=tol.residual_tol)
    rep.add(clause(name, formula, cov, tol.residual_tol))
    return d


def power_orbit(w, embed, steps: int) -> list:
    """[W^n E for 0 <= n <= steps], advancing the embedded columns rather
    than the full power W^n."""
    orbit = [embed]
    for _ in range(steps):
        orbit.append(w @ orbit[-1])
    return orbit


def _compression(orbit, t, threshold: Optional[float] = None) -> float:
    """max over 0 <= n <= steps of residual(E* U^n E, T^n) for the orbit
    [U^n E for 0 <= n <= steps] (see :func:`power_orbit`), as one sweep over
    the powers, decided against ``threshold`` when one is given."""
    steps = len(orbit) - 1
    compressed = orbit[0].conj().T @ np.stack(orbit)
    t_powers = np.stack(power_orbit(t, np.eye(t.shape[0], dtype=complex), steps))
    (worst,) = basis_sweep(np.arange(steps + 1), lambda n: (compressed[n], t_powers[n]),
                           lambda c, tn: (c, tn), threshold=threshold)
    return worst


def _interior_clauses(rec: DilationRecord, prefix: str, tol: Tolerance) -> ClauseReport:
    """Isometry and coisometry of U on the interior window: the Gram defects
    U* U - I and U U* - I without their boundary columns."""
    u = rec.w
    boundary = _blocks_within(u.cols, np.concatenate([rec.boundary_rows,
                                                       rec.boundary_cols]).astype(int))
    interior = [j for j in range(len(u.cols)) if j not in boundary]
    eye = BlockOperator.identity(u.cols)
    rep = ClauseReport()
    for name, formula, gram in (("isometric-interior", "(U* U - I) P_int = 0",
                                 u.adjoint() @ u),
                                ("coisometric-interior", "(U U* - I) P_int = 0",
                                 u @ u.adjoint())):
        rep.add(clause(f"{prefix}/{name}", formula,
                       spectral_norm((gram - eye).select(cols=interior)), tol.residual_tol))
    return rep


def unitary_dilate(pair: CovariantPair, n_levels: int, copies: int, strategy,
                   tol: Tolerance = DEFAULT_TOL,
                   basis_seed: Optional[int] = None) -> DilationRecord:
    """Unitary dilation by composing the coisometric extension with the
    isometric dilation; unitarity holds on the interior of the window."""
    chain = coisometric_extend(pair, n_levels, strategy, tol, basis_seed)
    return compose_unitary(chain, copies, tol)


def compose_unitary(chain: ExtensionChain, copies: int,
                    tol: Tolerance = DEFAULT_TOL) -> DilationRecord:
    """The composed route applied to an already assembled extension chain."""
    pair = chain.pair
    system = pair.system
    if system.is_tower and pair.depth is not None and pair.depth < copies:
        raise DepthExceeded(
            f"composed dilation needs check depth >= copies ({pair.depth} < {copies})")
    cpair = chain.as_pair()
    rec = schaffer_dilate(cpair, copies, tol)

    # boundary blocks: the truncated last chain block (rows) and the last copy (cols)
    last = chain.block_ranges[chain.block_names[-1]]
    rec2 = replace(rec, kind="unitary-composed", origin_pair=pair,
                   origin_embed=np.eye(rec.total_dim, pair.space_dim, dtype=complex),
                   chain=chain, boundary_rows=np.arange(last.start, last.stop))
    rec2.report = _unitary_clauses(rec2, chain.n_levels, tol)
    return rec2


def _unitary_clauses(rec: DilationRecord, n_levels: int,
                     tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    rep = ClauseReport()
    rep.notes.append(BOUNDARY_NOTE)
    window = min(n_levels, rec.copies)
    dil = _compression(power_orbit(rec.w, rec.origin_embed, window),
                       rec.origin_pair.contraction, tol.residual_tol)
    rep.add(clause("unitary/compression", "P_H U^n |H = T^n (0 <= n <= min(levels, copies))",
                   dil, tol.residual_tol))
    rep.extend(_interior_clauses(rec, "unitary", tol))

    # the boundary blocks of U U* - I and U* U - I, from the dense U
    u = rec.w.dense()
    rows, cols = u[rec.boundary_rows], u[:, rec.boundary_cols]
    row_b = spectral_norm(rows @ rows.conj().T - np.eye(len(rows))) if len(rows) else 0.0
    col_b = spectral_norm(cols.conj().T @ cols - np.eye(cols.shape[1])) \
        if cols.shape[1] else 0.0
    rep.notes.append(f"boundary residuals (expected order 1 by truncation): "
                     f"rows {row_b:.3e}, columns {col_b:.3e}")
    return rep


def explicit_matricial_unitary(chain: ExtensionChain, copies: int,
                               tol: Tolerance = DEFAULT_TOL) -> DilationRecord:
    """Two-sided block form of the unitary dilation, assembled directly.

    Ambient order: defect-(N-1), ..., defect-0, H, then ``copies`` copies of
    the defect space of V; the defect row carries the per-level complements,
    the corner map and the defect of T, exactly one entry per column block.
    """
    if copies < 1:
        raise StrategyInvalid("at least one defect copy required")
    pair = chain.pair
    system = pair.system
    if system.is_tower and pair.depth is not None and pair.depth < copies:
        raise DepthExceeded(
            f"matricial dilation needs check depth >= copies ({pair.depth} < {copies})")
    dd = defect_decomposition(chain, tol)
    n = chain.n_levels
    h = pair.space_dim
    dv = dd.dv_dim

    # ambient blocks, most negative first
    names = [f"defect-{k}" for k in range(n - 1, -1, -1)] + ["H"] \
        + [f"copy-{j}" for j in range(1, copies + 1)]
    dims = [chain.block_dims[k + 1] for k in range(n - 1, -1, -1)] + [h] + [dv] * copies
    index = list(range(-n, 0)) + [0] + list(range(1, copies + 1))
    total = sum(dims)
    at = dict(zip(names, block_slices(dims)))

    # the chain space inside the ambient one, its defect blocks reversed
    src_embed = np.zeros((total, chain.total_dim), dtype=complex)
    for (name, src), cd in zip(chain.block_ranges.items(), chain.block_dims):
        src_embed[at[name], src] = np.eye(cd)

    # fine blocks: the chain blocks in ambient order, then every copy split
    # into the summands of D_V.  V carried over (T in the corner, D_{k*} in
    # the row of the previous space and the column of defect-k), the defect
    # row below H, and an identity per summand down the copies
    order = list(range(n, 0, -1)) + [0]
    amb = {j: pos for pos, j in enumerate(order)}
    sdims = dd.summand_dims

    def copy_block(j, s):
        return n + 1 + (j - 1) * len(sdims) + s

    blocks = {(amb[i], amb[j]): b for (i, j), b in chain.v.blocks.items()}
    blocks.update({(copy_block(1, s), amb[j]): b for (s, j), b in dd.row_map.blocks.items()})
    for j in range(1, copies):
        for s, sd in enumerate(sdims):
            blocks[copy_block(j + 1, s), copy_block(j, s)] = np.eye(sd, dtype=complex)
    fine = [chain.v.rows[j] for j in order] + sdims * copies
    u = BlockOperator(fine, fine, blocks)

    parts = [chain.rho.parts[j] for j in order]
    for j in range(1, copies + 1):
        parts += shifted_restrictions(system, chain.rho.parts, dd.summand_bases, j)
    sigma = DirectSumRep(tuple(parts))
    origin_embed = np.eye(total, h, -at["H"].start, dtype=complex)
    first, last = at[f"defect-{n - 1}"], at[f"copy-{copies}"]
    rows = np.arange(first.start, first.stop)
    cols = np.arange(last.start, last.stop)

    rec = DilationRecord("unitary-explicit", names, dims, index, sigma, u,
                         chain.as_pair(), src_embed, copies, origin_pair=pair,
                         origin_embed=origin_embed, chain=chain,
                         boundary_rows=rows, boundary_cols=cols)
    rec.report = _matricial_clauses(rec, dd, tol)
    return rec


def _matricial_clauses(rec: DilationRecord, dd,
                       tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    rep = ClauseReport()
    rep.notes.append(BOUNDARY_NOTE)
    rep.extend(dd.report)
    chain = rec.chain
    pair = chain.pair
    u = rec.w

    _covariance_clause(rep, rec, pair, "matricial/covariance",
                       "U sigma(alpha(a)) = sigma(a) U", tol)
    rep.extend(_interior_clauses(rec, "matricial", tol))

    # compressions: to the chain pair and to the original corner
    res_v = _compression(rec.source_orbit, chain.v, tol.residual_tol)
    rep.add(clause("matricial/restricts-to-extension", "P_KV U^n |KV = V^n",
                   res_v, tol.residual_tol))
    res_t = _compression(power_orbit(u, rec.origin_embed, rec.copies), pair.contraction,
                         tol.residual_tol)
    rep.add(clause("matricial/compression", "P_H U^n |H = T^n",
                   res_t, tol.residual_tol))
    return rep
