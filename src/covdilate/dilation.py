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

One SVD per defect group.  The group's columns T_g, on the row blocks
they reach, have one full SVD T_g = U diag(sigma) V*, V square
(``covariant.contraction_svds``).  Then I - T_g* T_g = V diag(1 -
sigma^2, 1, ..., 1) V*, so Delta_c = V diag(s) V* with s = ((1 - sigma)(1 +
sigma))^(1/2) on T_g's row space and 1 on its kernel
(``covariant.defect_values``): each (1 - sigma)(1 + sigma), which does not
cancel as forming I - T_g* T_g does, is clamped at the defect floor before
its root, as ``numerics.psd_sqrt`` clamps an eigenvalue.  T is the
direct sum of its groups, so ||T|| is the largest sigma over the groups,
and that value gates the contraction.  The columns of V with s above the
one rank cutoff over all groups (``numerics.rank_cutoff``), in descending
s and with canonical phases, are B_c, and the head is B_c* Delta_c =
diag(s_c) B_c*, so no dense root, no eigendecomposition and no other SVD
is formed.  The record keeps (s_c, B_c) (``pivot_factors``), and
the pivot's component c is diag(s_c) B_c* = I diag(s_c) B_c*, an SVD with
u = I and vh = B_c*.  :meth:`Echelon.pivot_svds` returns it only after
certifying it against W's stored blocks, since a record's blocks may have
been replaced since: each component must equal diag(s_c) B_c* bit for bit.
Then with e_c = ||B_c* B_c - I||_F < 1 the eigenvalues of B_c* B_c lie in
[1 - e_c, 1 + e_c], so the singular values of the pivot component lie in
[s_min (1 - e_c)^(1/2), s_max (1 + e_c)^(1/2)] (diag(s_c) is square and
invertible).  Its largest is at most the upper end, so the exact cutoff
over the pivots and E_s (singular values 1) is at most the cutoff over
the upper ends and 1; when every lower end, and 1, exceeds that, the
exact rule keeps every singular value of every pivot, which is the rank
the certificate claims, with no SVD.  Otherwise ``ranked_svds`` of the
components decides, so a stale or edited block still gets its exact
dense rank.  The pseudo-inverse of a certified component is taken as
B_c diag(1/s_c); it differs from the exact B_c (B_c* B_c)^-1 diag(1/s_c)
by order e_c / s_min, and the intertwiner's clauses measure the u built
from it.

``explicit_matricial_unitary`` orders the chain blocks d_(n-1), ..., d_0, H
and splits every copy into the summands of D_V = delta(H) + q_0 + ...; U
carries V's blocks, the defect row's blocks below them and an identity per
summand down the copies.  The representations (``eta``, ``sigma``) are
direct sums over the same fine blocks.

The covariance clause takes the projection bound of
:mod:`~covdilate.extension` when every part of the representation has a
factor form.  A copy part is its source group shifted n times and
restricted to the copy basis B_c, so its factor form is the group's with n
more shifts and B_c for its lift: the bound reads W's stored blocks leaf
pair by leaf pair, B_c B_c* on a copy identity, and needs no invariance of
span B_c.  ``dilation/defect-invariant``, ||(I - B_c B_c*) g(alpha^n(a))
B_c|| for g the group's source, is :func:`~covdilate.covariant.invariance_values`
of every (B_c, g, n): 0.0 for a B_c that fills g's space, else the
commutant bound of g's factor form after n shifts, E averaging over every
pair of its leaves.  Otherwise both clauses are swept.  The sweeps and the
isometry and interior-unitarity clauses reduce per connected component of
the block pattern (exact, see BlockOperator): the components of W are
{src rows of group c and its copy-1 block; group c's columns} and
{copy-(j+1) part c; copy-j part c}, so no clause forms an operator of the
total side.  The embeddings of the source space and of the
original space are block operators too, one identity block per source
block, so both boundary notes act on stored blocks, and the compressions
are read off them.

Compressions read off the block pattern.  Let E embed the fine blocks S
by one identity block each, and A = E* X E.  If X stores no block in S's
rows outside S's columns, then E* X = A E*; if it stores none in S's
columns outside S's rows, then X E = E A.  Either way E* X^n E = A^n for
every n.  The closures nest: for E = E_s F, F an embedding of identity
blocks into the source blocks, E* W^n E = F* A^n F, which is B^n, B = F*
A F, when F's blocks are closed in A.  A Schaffer record stores only T in
its source rows (the form above), so its source rows are closed and A =
T; the chain's V stores only T in column H, since H is invariant, so
column H is closed in A = V and E_H* U^n E_H = E_H* V^n E_H = T^n for
both unitary routes.  When the closures hold on the stored blocks and the
compression stores the compared operator's blocks, the same keys and bit
for bit, ``dilation/compression``, ``unitary/compression``,
``matricial/restricts-to-extension`` and ``matricial/compression`` are
exactly 0.0 and no power orbit is built (``_powers_compress``).  The
pattern is read from the stored blocks, so a misplaced block or an edited
T block sends the clause to the sweep over the orbit, exact above its
threshold.

Block-echelon power orbits.  Both records are in Schaffer form over their
source: E places every source block on one fine block (the rows E_s), W
maps the source blocks to themselves (T, with E* W E = T) and to the parts
of the first copy, copy j to copy j + 1 part by part by identities, and the
last copy to nothing.  Let P, the pivot, be the copy-1 rows of W E (the
copy-1 parts x the source blocks).  By induction on n the column block
W^n E of the orbit X = [E, W E, ..., W^N E] is::

    source rows   E_s T^n
    copy j        P T^(n-j)   (j <= n),   0   (j > n)

since the source rows of W^(n+1) E are W's source block times E_s T^n,
which is E_s T^(n+1), copy 1 receives P T^n, and copy j + 1 receives copy
j.  So X is block upper-triangular over (source, copy 1, ..., copy N) x
(n = 0, ..., N) with the pivots E_s, P, ..., P on its diagonal.  E_s is a
permutation of identities.  If P is onto, y* X = 0 gives y_src = 0 from
column 0 and then y_j* P = 0, so y_j = 0, from column j: X is onto (the
record is minimal), of rank dim(source) + N rank(P).  If P is not onto, a
y in ker P* on copy N alone is orthogonal to X.  :class:`Echelon` reads E,
P and the copies off the stored blocks (None when they are not of this
form), and ``dilation/minimal`` takes the pivot ranks under one
singular-value cutoff (E_s adds singular values 1); when a pivot falls
short, the rank in its note is the dense rank of X.

The defect row as a pivot.  The pivot of ``explicit_matricial_unitary`` is
the defect row of :func:`~covdilate.extension.defect_decomposition`
without its empty summands.  Its component on the columns of H and defect-0
is C = [[A, X], [0, Q*]], A = dH* delta the head, X the corner and Q = q_0
(no row when q_0 has no columns), and every other component is a lone
q_k*.  X ends in f_0 f_0*, and f_0 and q_0 are columns of one SVD, so X Q
vanishes up to round-off.  With r = ||Q* Q - I||_F and e = ||X Q||_F, C C*
is diag(A A* + X X*, Q* Q) plus an off-diagonal part of norm at most e,
and X X* >= 0 with ||X X*|| <= ||X||_F^2, so by Weyl's inequality every
squared singular value of C lies in [min(s_min(A)^2, 1 - r) - e,
max(||A||^2 + ||X||_F^2, 1 + r) + e], and those of a lone q_k* in [1 - r_k,
1 + r_k]; a positive lower end also gives C no more rows than columns.
``extension._row_bounds`` takes (low, top), the square roots of the
smallest lower and the largest upper end, from the head's singular values
and the r_k that ``defect/row-onto`` already took (``_row_onto``), and the
record holds them with the row (``pivot_row``), whose blocks are
read-only.  :meth:`Echelon.onto` accepts them only when the pivot is the
held row block for block and bit for bit, and min(low, 1) exceeds the
cutoff over max(top, 1): the exact cutoff over the components and E_s is
at most that, and every singular value, E_s's 1s included, at least
min(low, 1), so the one rank rule keeps them all and the pivot is onto,
with no SVD.  Otherwise ``ranked_svds`` of the components decides, so an
edited block, a head near the cutoff or an inflated X q_0 still gets the
exact dense rank.

The anchored intertwiner.  Let two such records share the source pair and
the source blocks.  W is isometric on the source columns, so P* P = I -
T* T in both and P1, P2 have one kernel.  Then u W1^n E1 = W2^n E2 for
all n <= N holds for u = E2 E1* on the source blocks and u_c = P2 pinv(P1)
on every copy: the source rows ask u_s E1_s = E2_s, and the copy rows ask
u_c P1 T^(n-j) = P2 T^(n-j), where u_c P1 = P2 pinv(P1) P1 = P2 because
pinv(P1) P1 projects onto the orthogonal complement of ker P1 = ker P2.
When X1 is onto, this u is the only solution of u X1 = X2, the dense
least-squares u = X2 pinv(X1); u_c maps ran P1 isometrically onto ran P2,
so u is unitary when both pivots are onto.
:func:`~covdilate.equivalence.dilation_intertwiner` builds u this way,
as a block operator on the two fine layouts.  Its source blocks are E2's
identity blocks in E1's columns, so u E1 = E2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .covariant import (CovariantPair, DirectSumRep, RestrictedRep, ShiftedRep,
                        contraction_svds, defect_values, invariance_values, relation_values,
                        shifted_restrictions, usable_depth)
from .errors import DepthExceeded, ShapeMismatch, StrategyInvalid
from .extension import (ExtensionChain, coisometric_extend,
                        defect_decomposition)
from .numerics import (DEFAULT_TOL, BlockOperator, Tolerance, _canonical_phases,
                       _isometry_defect, as_blocks, basis_sweep, block_slices,
                       rank_cutoff, ranked_svds, residual, spectral_norm, svd_rank)
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
    source_embed: BlockOperator     # ambient x source, isometric (fine x source blocks)
    copies: int
    origin_pair: Optional[CovariantPair] = None   # the original (pi, T) when composed
    origin_embed: Optional[BlockOperator] = None
    chain: Optional[ExtensionChain] = None
    report: Optional[ClauseReport] = None
    boundary_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    boundary_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # (s_c, B_c) of each copy-1 part when W's pivot was built as diag(s_c) B_c*
    pivot_factors: tuple = ()
    # (row, low, top) when W's pivot is the defect row of defect_decomposition
    pivot_row: tuple = ()

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

    @cached_property
    def echelon(self) -> Optional["Echelon"]:
        """The record's Schaffer form over its source, read off the stored
        blocks of W and E (module docstring); None when they are not in it."""
        return _read_echelon(self.w, self.source_embed, self.copies, self.pivot_factors,
                             self.pivot_row)

    def index_table(self) -> list[dict]:
        return [{"name": n, "index": i, "dim": d, "offset": s.start}
                for (n, s), i, d in zip(self.block_ranges.items(), self.block_index,
                                        self.block_dims)]


@dataclass(frozen=True)
class Echelon:
    """A power orbit in block-echelon form (see the module docstring).

    ``pivot`` is the copy-1 rows of W E (the copy-1 parts x the source
    blocks), ``parts[j]`` the fine blocks of copy j + 1, one per part, in
    the order of the pivot's rows, and ``factors`` and ``row`` the record's
    ``pivot_factors`` and ``pivot_row``.
    """

    pivot: BlockOperator
    parts: tuple
    factors: tuple
    row: tuple

    def onto(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether every pivot is onto, so that the orbit spans the whole
        space: from the held bounds of the defect row when they certify it
        (module docstring), else by :meth:`spans` of :meth:`pivot_svds`."""
        return self._row_certified(tol) or self.spans(self.pivot_svds(tol), tol)

    def _row_certified(self, tol: Tolerance) -> bool:
        """Whether the pivot is the held defect row without its zero rows,
        block for block and bit for bit, and its bounds (low, top) keep every
        singular value, and E_s its 1s, under the cutoff over top and 1."""
        if not self.row:
            return False
        row, low, top = self.row
        held, p = row.select(rows=[i for i, d in enumerate(row.rows) if d]), self.pivot
        return (held.rows, held.cols, held.blocks.keys()) == (p.rows, p.cols, p.blocks.keys()) \
            and all(b is p.blocks[k] or np.array_equal(b, p.blocks[k])
                    for k, b in held.blocks.items()) \
            and min(low, 1.0) > rank_cutoff([], tol, max(top, 1.0))

    def pivot_svds(self, tol: Tolerance = DEFAULT_TOL, compute_uv: bool = False) -> list:
        """The truncated SVDs of the pivot's components, under the cutoff
        they share with E_s (singular values 1): the held factors (s_c,
        B_c) as (I, s_c, B_c*), u None for the identity, when they certify
        the ranks (module docstring), else
        :func:`~covdilate.numerics.ranked_svds`."""
        blocks = self.pivot.component_blocks()
        if self._certified(blocks, tol):
            return [(None, s, b.conj().T if compute_uv else None) for s, b in self.factors]
        return ranked_svds(blocks, tol, compute_uv, top=1.0)

    def _certified(self, blocks, tol: Tolerance) -> bool:
        """Whether every component block is diag(s_c) B_c*, bit for bit, and
        s_c with e_c = ||B_c* B_c - I||_F < 1 keeps all its singular values,
        and E_s its 1s, under the cutoff widened by (1 + e_c)^(1/2)."""
        if not self.factors or len(blocks) != len(self.factors):
            return False
        lows, top = [1.0], 1.0
        for block, (s, b) in zip(blocks, self.factors):
            e = _isometry_defect(b)
            if not (s.size and e < 1.0 and np.array_equal(block, s[:, None] * b.conj().T)):
                return False
            lows.append(float(s[-1]) * math.sqrt(1.0 - e))
            top = max(top, float(s[0]) * math.sqrt(1.0 + e))
        return min(lows) > rank_cutoff([], tol, top)

    def spans(self, svds, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether every pivot is onto under that cutoff (``svds`` from
        :meth:`pivot_svds`), so that the orbit spans the whole space."""
        kept = [s for _, s, _ in svds]
        return 1.0 > rank_cutoff(kept, tol, 1.0) and sum(map(len, kept)) == sum(self.pivot.rows)


def _is_identity(b) -> bool:
    return b.ndim == 2 and b.shape[0] == b.shape[1] \
        and np.count_nonzero(b) == b.shape[0] and bool((b.diagonal() == 1).all())


def _identity_places(embed) -> Optional[dict]:
    """The fine block of each nonzero column block of an embedding stored
    as one identity block per such column block, in distinct rows, as fine
    block -> column block; None when ``embed`` is not one."""
    if not isinstance(embed, BlockOperator):
        return None
    place = {}
    for (i, k), b in embed.blocks.items():
        if i in place or k in place.values() or not _is_identity(b):
            return None
        place[i] = k
    return place if len(place) == sum(1 for d in embed.cols if d) else None


def _read_echelon(w, embed, copies: int, factors: tuple, row: tuple) -> Optional[Echelon]:
    """The Schaffer form of W over E: E one identity block per source block,
    and besides W's blocks among the source blocks only the pivot (source
    blocks to copy-1 parts) and one identity from each part of copy j to the
    same part of copy j + 1.  The fine blocks outside the source, in order,
    are the parts of copy 1, then of copy 2, and so on.  The record's held
    ``factors`` and ``row`` are passed on unchecked; :meth:`Echelon.pivot_svds`
    and :meth:`Echelon.onto` certify them."""
    source = _identity_places(embed)         # fine block -> source block
    if not isinstance(w, BlockOperator) or source is None:
        return None
    rest = [i for i, d in enumerate(w.rows) if d and i not in source]
    m, extra = divmod(len(rest), copies)
    if extra:
        return None
    parts = tuple(tuple(rest[j * m:(j + 1) * m]) for j in range(copies))
    where = {i: (j, a) for j, ps in enumerate(parts) for a, i in enumerate(ps)}
    pivot, steps = {}, 0
    for (i, j), b in w.blocks.items():
        if i in source and j in source:
            continue
        if j in source and where.get(i, (None,))[0] == 0:
            pivot[where[i][1], source[j]] = b
        elif i in where and j in where and where[i] == (where[j][0] + 1, where[j][1]) \
                and _is_identity(b):
            steps += 1
        else:
            return None
    if steps != (copies - 1) * m:
        return None
    return Echelon(BlockOperator([w.rows[i] for i in parts[0]], embed.cols, pivot), parts,
                   factors, row)


def orbit_rank(rec: DilationRecord, tol: Tolerance = DEFAULT_TOL) -> int:
    """The rank of the power orbit [E, W E, ..., W^N E]: the whole space when
    the record is in Schaffer form and its pivots are onto, else the dense
    rank of the orbit (so that a shortfall is exact)."""
    ech = rec.echelon
    if ech is not None and ech.onto(tol):
        return rec.total_dim
    return svd_rank(np.hstack(rec.source_orbit), tol)


def schaffer_dilate(pair: CovariantPair, copies: int,
                    tol: Tolerance = DEFAULT_TOL) -> DilationRecord:
    """Truncated minimal isometric dilation of a covariant pair, on the block
    layout of its contraction (see the module docstring).  Each group's
    copy basis B_c and copy-1 head diag(s_c) B_c* come from the one SVD of
    its columns T_g that gives its defect root, and the record keeps (s_c,
    B_c) as the SVD of the pivot."""
    if copies < 1:
        raise StrategyInvalid("at least one defect copy required")
    system = pair.system
    if system.is_tower:
        if pair.depth is None:
            raise DepthExceeded("tower pairs need an explicit check depth")
        if pair.depth + copies > system.d_max:
            raise DepthExceeded(
                f"depth budget {pair.depth} + {copies} exceeds d_max {system.d_max}")

    t = as_blocks(pair.contraction)
    groups = _defect_groups(t)
    # T_g on the row blocks it reaches; ||T|| is the largest sigma of any
    svds = contraction_svds([t.select(rows=sorted({i for i, j in t.blocks if j in g}),
                                      cols=g).dense() for g in groups], tol)
    roots = []
    for _, sigma, vh in svds:
        s = defect_values(sigma, vh.shape[0], tol)
        order = np.argsort(-s, kind="stable")
        roots.append((s[order], vh[order].conj().T))
    cut = rank_cutoff([s for s, _ in roots], tol)
    kept, factors = [], []
    for g, (s, vecs) in zip(groups, roots):
        k = np.count_nonzero(s > cut)
        if k:
            s, b = s[:k].copy(), _canonical_phases(vecs[:, :k])
            kept.append((g, b, s[:, None] * b.conj().T))
            factors.append((s, b))
    return _schaffer_record(pair, copies, kept, tuple(factors))


def _schaffer_record(pair: CovariantPair, copies: int, kept: list,
                     factors: tuple = ()) -> DilationRecord:
    """The isometric record of :func:`schaffer_dilate` from the kept defect
    groups, each ``(g, B_c, head)`` with ``head`` the copy-1 rows of group
    g's columns, and the factors (s_c, B_c) of the heads when they are
    held."""
    system = pair.system
    t = as_blocks(pair.contraction)
    # one source summand per block of T
    src = pair.rep.parts if len(t.cols) > 1 else (pair.rep,)
    if [p.dim for p in src] != list(t.cols):
        raise ShapeMismatch("representation summands do not match the blocks of T")
    n_src, n_kept = len(t.cols), len(kept)
    ranks = [b.shape[1] for _, b, _ in kept]
    blocks = dict(t.blocks)
    for c, (g, b, head) in enumerate(kept):
        for j, cols in zip(g, block_slices([t.cols[j] for j in g])):
            blocks[n_src + c, j] = head[:, cols]
        for n in range(1, copies):
            blocks[n_src + n * n_kept + c, n_src + (n - 1) * n_kept + c] = \
                np.eye(ranks[c], dtype=complex)
    fine = list(t.cols) + ranks * copies
    w = BlockOperator(fine, fine, blocks)
    embed = BlockOperator(fine, t.cols, {(k, k): np.eye(d, dtype=complex)
                                         for k, d in enumerate(t.cols)})

    def group_rep(g):
        return src[g[0]] if len(g) == 1 else DirectSumRep(tuple(src[j] for j in g))

    parts = list(src) + [RestrictedRep(ShiftedRep(group_rep(g), system, n), b)
                         for n in range(1, copies + 1) for g, b, _ in kept]
    eta = DirectSumRep(tuple(parts))
    h = pair.space_dim
    dims = [h] + [sum(ranks)] * copies
    at = block_slices(dims)
    names = ["H"] + [f"copy-{j}" for j in range(1, copies + 1)]
    index = list(range(0, copies + 1))
    last = np.arange(at[-1].start, at[-1].stop)
    return DilationRecord("isometric", names, dims, index, eta, w, pair, embed,
                          copies, origin_pair=pair, origin_embed=embed,
                          boundary_rows=np.zeros(0, dtype=int), boundary_cols=last,
                          pivot_factors=factors)


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
    rep = ClauseReport()
    rep.notes.append(MINIMALITY_NOTE)
    t = pair.contraction
    tb = as_blocks(t)
    total = rec.total_dim

    d = _covariance_clause(rep, rec, pair, "dilation/covariance",
                           "W eta(alpha(a)) = eta(a) W", tol)

    inv = _copy_invariance(rec, d, tol)
    if inv is not None:
        rep.add(clause("dilation/defect-invariant",
                       "pi(alpha^n(a)) preserves the defect space",
                       inv, tol.residual_tol))

    w = rec.w
    keep = BlockOperator.identity(w.cols, skip=_blocks_within(w.cols, rec.boundary_cols))
    rep.add(clause("dilation/isometry", "W* W = P(all copies but the truncated last)",
                   residual(w.adjoint() @ w, keep, tol.residual_tol),
                   tol.residual_tol))

    rep.add(clause("dilation/compression", "P_H W^n |H = T^n (0 <= n <= copies)",
                   _compression_clause(rec, rec.source_embed, t, rec.copies, tol),
                   tol.residual_tol))

    rank = orbit_rank(rec, tol)
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


def _copy_invariance(rec: DilationRecord, d, tol: Tolerance) -> Optional[float]:
    """``dilation/defect-invariant``: the invariance of each copy basis B_c
    under g o alpha^n, g its group's source, needed for eta's diagonal, with
    d the covariance depth, one call per basis depth; None when there is no
    copy part or H is zero.  The first copy's summands (after the source
    ones) are the sources restricted to B_c; every copy shifts them."""
    pair = rec.source_pair
    system = pair.system
    copy_parts = rec.eta.parts[len(as_blocks(pair.contraction).cols):]
    if not copy_parts or not pair.space_dim:
        return None
    by_depth = {}
    for part in copy_parts[:len(copy_parts) // rec.copies]:
        for n in range(1, rec.copies + 1):
            dd = usable_depth(system, [pair.rep], n, pair.depth if d is None else d)
            by_depth.setdefault(dd, []).append((part.basis, part.inner.inner, n))
    inv = 0.0
    for dd, items in by_depth.items():
        inv = max(inv, *invariance_values(system, dd, tol.residual_tol, *items))
    return inv


def _covariance_clause(rep: ClauseReport, rec: DilationRecord, pair: CovariantPair,
                       name: str, formula: str, tol: Tolerance) -> Optional[int]:
    """Add the clause W eta(alpha(a)) = eta(a) W for the record's operator and
    representation; return the basis depth it was checked at."""
    system = pair.system
    d = usable_depth(system, [rec.eta], 1, pair.depth)
    if system.is_tower and d == 0:
        rep.notes.append("covariance window reduced to basis depth 0 by the "
                         "truncation budget (scalars only)")
    (cov,) = relation_values(system, d, tol.residual_tol, (rec.w, rec.eta, rec.eta, 1))
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
    the powers, decided against ``threshold`` when one is given.  A block
    orbit is compressed block by block, to matrices of the source side, and
    T^n is taken by the same block products as the orbit's source rows."""
    steps = len(orbit) - 1
    head = orbit[0]
    e_h = head.adjoint() if isinstance(head, BlockOperator) else np.conj(head).T
    compressed = np.stack([np.asarray(e_h @ x) for x in orbit])
    tb = as_blocks(t)
    t_powers = np.stack([np.asarray(x) for x in
                         power_orbit(tb, BlockOperator.identity(tb.cols), steps)])
    (worst,) = basis_sweep(np.arange(steps + 1), lambda n: (compressed[n], t_powers[n]),
                           lambda c, tn: (c, tn), threshold=threshold)
    return worst


def _compression_clause(rec: DilationRecord, embed, t, steps: int,
                        tol: Tolerance) -> float:
    """max over 0 <= n <= steps of residual(E* W^n E, T^n) for E = ``embed``:
    exactly 0.0 when the stored blocks give E* W^n E = T^n for every n
    (:func:`_powers_compress`), else the sweep of :func:`_compression` over
    the power orbit."""
    if _powers_compress(rec, embed, t):
        return 0.0
    return _compression(power_orbit(rec.w, embed, steps), t, tol.residual_tol)


def _closed_compression(blocks: dict, place: dict) -> Optional[dict]:
    """The blocks of A = E* X E, keyed by E's column blocks, for X stored as
    ``blocks`` and E one identity block per column block (``place``, X's
    block -> E's column block), when X stores no block in E's rows outside
    E's columns or none in E's columns outside E's rows, so that E* X^n E =
    A^n for every n (module docstring); None otherwise."""
    if not (all(j in place for i, j in blocks if i in place)
            or all(i in place for i, j in blocks if j in place)):
        return None
    return {(place[i], place[j]): b for (i, j), b in blocks.items()
            if i in place and j in place}


def _powers_compress(rec: DilationRecord, embed, t) -> bool:
    """Whether E* W^n E = T^n for every n follows from the stored blocks, for
    E = ``embed`` the source embedding E_s or one whose blocks lie in E_s's:
    the source blocks are closed in W, with compression A, E's blocks are
    closed in A, and that compression stores T's blocks bit for bit."""
    w, src, inner, t = rec.w, _identity_places(rec.source_embed), _identity_places(embed), \
        as_blocks(t)
    if src is None or inner is None or not inner.keys() <= src.keys() \
            or not w.rows == w.cols == rec.source_embed.rows == embed.rows \
            or not t.rows == t.cols == embed.cols:
        return False
    a = _closed_compression(w.blocks, src)
    a = None if a is None else _closed_compression(a, {src[i]: k for i, k in inner.items()})
    return a is not None and a.keys() == t.blocks.keys() \
        and all(np.array_equal(b, t.blocks[k]) for k, b in a.items())


def _interior_clauses(rec: DilationRecord, prefix: str, tol: Tolerance) -> ClauseReport:
    """Isometry and coisometry of U on the interior window: the Gram defects
    U* U - I and U U* - I without their boundary columns, decided against
    the residual threshold (a passing value may be a Frobenius bound)."""
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
                       spectral_norm((gram - eye).select(cols=interior), tol.residual_tol),
                       tol.residual_tol))
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
    # H is the first source block, the first fine block
    h = pair.space_dim
    origin = BlockOperator(rec.w.rows, (h,), {(0, 0): np.eye(h, dtype=complex)})
    rec2 = replace(rec, kind="unitary-composed", origin_pair=pair, origin_embed=origin,
                   chain=chain, boundary_rows=np.arange(last.start, last.stop))
    rec2.report = _unitary_clauses(rec2, chain.n_levels, tol)
    return rec2


def _unitary_clauses(rec: DilationRecord, n_levels: int,
                     tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    rep = ClauseReport()
    rep.notes.append(BOUNDARY_NOTE)
    window = min(n_levels, rec.copies)
    dil = _compression_clause(rec, rec.origin_embed, rec.origin_pair.contraction, window, tol)
    rep.add(clause("unitary/compression", "P_H U^n |H = T^n (0 <= n <= min(levels, copies))",
                   dil, tol.residual_tol))
    rep.extend(_interior_clauses(rec, "unitary", tol))

    # the boundary blocks of U U* - I and U* U - I, from U's stored blocks
    u = rec.w
    rows = u.select(rows=sorted(_blocks_within(u.rows, rec.boundary_rows)))
    cols = u.select(cols=sorted(_blocks_within(u.cols, rec.boundary_cols)))
    row_b = spectral_norm(rows @ rows.adjoint() - BlockOperator.identity(rows.rows))
    col_b = spectral_norm(cols.adjoint() @ cols - BlockOperator.identity(cols.cols))
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
    at = dict(zip(names, block_slices(dims)))

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
    # the chain space and H inside the ambient one, the defect blocks reversed
    src_embed = BlockOperator(fine, chain.block_dims,
                              {(amb[j], j): np.eye(d, dtype=complex)
                               for j, d in enumerate(chain.block_dims)})
    origin_embed = BlockOperator(fine, (h,), {(amb[0], 0): np.eye(h, dtype=complex)})

    parts = [chain.rho.parts[j] for j in order]
    for j in range(1, copies + 1):
        parts += shifted_restrictions(system, chain.rho.parts, dd.summand_bases, j)
    sigma = DirectSumRep(tuple(parts))
    first, last = at[f"defect-{n - 1}"], at[f"copy-{copies}"]
    rows = np.arange(first.start, first.stop)
    cols = np.arange(last.start, last.stop)

    rec = DilationRecord("unitary-explicit", names, dims, index, sigma, u,
                         chain.as_pair(), src_embed, copies, origin_pair=pair,
                         origin_embed=origin_embed, chain=chain,
                         boundary_rows=rows, boundary_cols=cols,
                         pivot_row=(dd.row_map, *dd.row_bounds) if dd.row_bounds else ())
    rec.report = _matricial_clauses(rec, dd, tol)
    return rec


def _matricial_clauses(rec: DilationRecord, dd,
                       tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    rep = ClauseReport()
    rep.notes.append(BOUNDARY_NOTE)
    rep.extend(dd.report)
    chain = rec.chain
    pair = chain.pair

    _covariance_clause(rep, rec, pair, "matricial/covariance",
                       "U sigma(alpha(a)) = sigma(a) U", tol)
    rep.extend(_interior_clauses(rec, "matricial", tol))

    # compressions: to the chain pair and to the original corner
    res_v = _compression_clause(rec, rec.source_embed, chain.v, rec.copies, tol)
    rep.add(clause("matricial/restricts-to-extension", "P_KV U^n |KV = V^n",
                   res_v, tol.residual_tol))
    res_t = _compression_clause(rec, rec.origin_embed, pair.contraction, rec.copies, tol)
    rep.add(clause("matricial/compression", "P_H U^n |H = T^n",
                   res_t, tol.residual_tol))
    return rep
