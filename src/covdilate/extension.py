"""Truncated inductive coisometric extension of a covariant pair.

``coisometric_extend(pair, n_levels, ...)`` builds every level with
:func:`~covdilate.covariant.two_step`: level 0 on ``(pi, T)``, level k on
``(pi_hat_(k-1), 0)``, whose defect ``Delta* = I`` makes its defect space
the one generated by ``W_k defect_(k-1)``.  The chain keeps the
:class:`~covdilate.covariant.TwoStepBlock` of each level as its level
record.  The assembled pair ``(rho, V)`` lives on

    H + defect_0 + defect_1 + ... + defect_{n_levels-1}

with ``V`` superdiagonal and the row of the last block zero by truncation.
Consequently ``V V*`` equals the projection onto all blocks except the last
one exactly, which is how the coisometry clause is stated throughout.  The
chain with the first n levels is the leading ``sum(block_dims[:n + 1])``
square of ``V``: truncation zeroes the row of the last kept block, and
``D*_n`` lies outside that square.

Block layout.  ``rho`` is the direct sum of ``pi`` and the levels' ``pi_hat``
and ``V`` is a :class:`~covdilate.numerics.BlockOperator` over the chain
blocks that stores only its nonzero blocks::

          H     d_0    d_1   ...  d_(n-1)
    H   [ T     D_0*                     ]
    d_0 [              D_1*              ]
    ...                     ...
    d_(n-2)                      D_(n-1)*
    d_(n-1)                              ]   (zero row: truncation)

The defect decomposition keeps the same layout: ``dv_basis`` is the
block-diagonal embedding of D_V = delta(H) + q_0 + ... + q_(n-1) (the block
delta(H) in H, q_k in defect-k), and the defect row has the blocks

          H            d_0         d_k (k >= 1)
    dH  [ dH* delta    X_upper                  ]
    q_0 [              q_0*                     ]
    q_k [                          q_k*         ]

Every whole-chain clause is reduced per connected component of its block
pattern (see :class:`~covdilate.numerics.BlockOperator`), which gives the
value of the dense operator exactly while never forming it: V rho(alpha(a))
and rho(a) V have the components {H; H, d_0} and {d_(k-1); d_k}, V V* and
V* V are block-diagonal over the same groups.  The row is block
upper-triangular, with the pivots dH* delta and q_k* on its diagonal, so
it is onto D_V when every pivot is; ``defect/row-onto`` certifies that
from the pivots (the q_k* by orthonormality, with no SVD), and otherwise
takes rank(row) as the sum of the ranks of the row's components under one
global singular-value cutoff.  The same pivot values bound the singular
values of the row's components (``_row_bounds``), which the two-sided
dilation record holds for its own pivot, this row (see
:mod:`covdilate.dilation`).

Kraus form.  Each level's ``pi_hat_k`` is a
:class:`~covdilate.cpmaps.KrausRep` (directsum_b x_b (x) I_(r_b)), with or
without a basis seed: the seed moves only the level's defect basis, its
D_k* and the dilation map of ``pi_hat_k``, by a unitary of the commutant
of ``pi_hat_k`` (:func:`~covdilate.covariant.two_step`).  Where a
whole-chain sweep runs (see the bounds below), it applies rho = pi +
pi_hat_0 + ... + pi_hat_(n-1) to the blocks of V and D_V through the
levels' frame kernels
(:meth:`~covdilate.cpmaps.KrausRep.act`), so no level image is formed.

Defect clauses from structure.  ``chain/representation-restricts`` is
exactly 0.0 when rho's first part is pi itself, and is swept otherwise.
``defect/diagonal-form`` is exactly 0.0 with no fallback: D_V's embedding
and rho(alpha(a)) are both block-diagonal over the chain blocks, so the
compression of rho(alpha(a)) to D_V has no off-diagonal block.
``defect/invariant`` is max_i ||(I - P) rho_i(alpha(b)) B_i|| over the
chain blocks i and matrix units b, B_i the block of D_V and P = B_i B_i*
(:func:`~covdilate.covariant.invariance_values`); a block that D_V fills
drops out, so the clause is exactly 0.0 when D_V fills every block, and a
proper block is bounded or swept as below.
With E the conditional expectation onto the commutant of rho_i(alpha(A)),
E(P) commutes with rho_i(alpha(b)), (I - P) P = 0 and P B_i = B_i, so

    (I - P) rho_i(alpha(b)) B_i = (I - P) [rho_i(alpha(b)), P] B_i
                                = (I - P) [rho_i(alpha(b)), P - E(P)] B_i,

of norm at most 2 ||P - E(P)||_F.  A computed B_i is orthonormal only up
to round-off: with G = B_i* B_i, e = ||G - I||_F and x = rho_i(alpha(b)),
P B_i = B_i G and (I - P) P = B_i (I - G) B_i*, so

    (I - P) x B_i = (I - P) [x, P - E(P)] B_i + B_i (I - G) B_i* x B_i
                    + (I - P) x B_i (I - G),

and since ||B_i||^2 <= 1 + e and ||I - P|| <= 1 for e <= 1, its norm is at
most (1 + e)^(1/2) (2 ||P - E(P)||_F + e (2 + e)), the value
:func:`~covdilate.numerics.commutant_bound` returns.  At depth 0, where a
is a scalar and E the identity, the e term is all of it.  The sweep
values the same ||(I - P) x B_i||, as ||x B_i - B_i (B_i* x B_i)||, so no
complement of D_V is built.  On the tower rho_i(alpha(a))
= I_k (x) a (x) I_R (``TowerSystem.shift_factors``), E averages over the
middle factor, and the largest bound over the remaining blocks is the value
when it is at or below the threshold, labelled a bound; otherwise, and on
the finite backend, the basis sweep gives the exact value.

Covariance and intertwining from a projection bound.  Let L(a) = X sigma(a)
- tau(a) X, sigma and tau *-homomorphisms, and E the Frobenius-orthogonal
projection onto the intertwiners {Y : Y sigma(a) = tau(a) Y for all a}.
Then L(a) = (X - E(X)) sigma(a) - tau(a) (X - E(X)), so ||L(a)|| <= 2 ||X
- E(X)||_F for ||a|| <= 1 (:func:`~covdilate.numerics.intertwiner_bound`);
the commutant bound above is its case X = P, sigma = tau.  On the tower
every rep the package builds has a factor form at depth d
(:func:`~covdilate.covariant.factor_form`): rep(alpha^n(a)) = B* F(a) B
with F(a) = directsum_l I_(m_l) (x) a (x) I_(R_l) and B an isometry.  A
``KrausRep`` is one leaf with B = I and (m, R) = (k^n, dim / k^(d + n))
(``TowerSystem.shift_factors``), a ``ShiftedRep`` adds its
shifts, a ``RestrictedRep`` to the columns b composes B with b, and a
direct sum sets its parts' leaves side by side.  For such sigma and tau,
with X' = B_tau X B_sigma*,

    X sigma(a) - tau(a) X = B_tau* (X' F_sigma(a) - F_tau(a) X') B_sigma,

since B_tau* X' = X B_sigma* and X' B_sigma = B_tau X.  This is exact and
asks no invariance of the ranges of B, so the clause is at most 2 ||X' -
E(X')||_F, E now projecting onto the intertwiners of F_sigma and F_tau.
Every leaf carries the same a, so E averages over the middle factor on
every leaf pair, not only on the diagonal ones.  ``chain/covariance`` (X =
V, sigma = rho o alpha, tau = rho), ``dilation/covariance`` and
``matricial/covariance`` (X = W, U) and the ``representation_intertwined``
relations of the intertwiners take this bound, labelled a bound, when it
is at or below the threshold.  Otherwise, and when a part has no factor
form (the finite backend, dense or rotated reps), the basis sweep gives the
exact value (:func:`~covdilate.covariant.relation_values`).
``dilation/defect-invariant``, ||(I - b b*) g(alpha^n(a)) b|| for a copy
basis b of the source g of its group, takes the commutant bound above, E
averaging over every leaf pair of g's factor form after n shifts.
A computed basis b is an isometry only up to round-off.  With G = B* B
the right side above is G_tau X sigma(a) - tau(a) X G_sigma, so L(a)
exceeds it by (I - G_tau) X sigma(a) - tau(a) X (I - G_sigma), and with
e = ||G - I||_F and ||B||^2 <= 1 + e the bound scales its first term by
((1 + e_tau)(1 + e_sigma))^(1/2) and adds ||X||_F (e_tau (1 + e_sigma) +
(1 + e_tau) e_sigma); at depth 0, where E is the identity, the added term
is all of it.

Level containment note.  A unit e_ij at the check depth d acts on the
level space as e_ij (x) I_m, m = dim / k^d (x embeds as x (x) 1, stage
index first; on the finite backend e^b_pq is e_pq (x) I_(r_b) in block b).
So with W_i the i-th group of m rows of W, (I - W W*) rho(e_ij) W = F_i W_j
for F_i = E_i - W W_i*, the group's columns of I - W W*, and with F_i =
Q_i R_i its norm is ||R_i W_j||: exact, from one QR and one stack over j
per group i, where the Gram form ||W_j* (I - W_i W_i*) W_j||^(1/2) would
lose half the digits near 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covariant import (CovariantPair, DirectSumRep, TwoStepBlock, defect_roots,
                        extend_representation, invariance_values, relation_values, two_step,
                        usable_depth, verify_strategy)
from .errors import (DecompositionMismatch, DepthExceeded, InvarianceViolation,
                     StrategyInvalid)
from .numerics import (DEFAULT_TOL, BlockOperator, Tolerance, _canonical_phases,
                       _isometry_defect, _spectral_norms, block_slices, orthonormal_span,
                       rank_cutoff, ranked_svds, residual, spectral_norm)
from .report import ClauseReport, clause

TRUNCATION_NOTE = ("truncated construction: the ambient space keeps n_levels defect "
                   "blocks and the row of the last block is zero, so the coisometry "
                   "identity reads V V* = P onto all blocks but the last")
LEVEL_SPACE_NOTE = ("the defect space of level k is built, and lives, inside the "
                    "level-k dilation space")


@dataclass(eq=False)
class ExtensionChain:
    pair: CovariantPair
    strategies: tuple
    levels: list[TwoStepBlock]
    rho: DirectSumRep
    v: BlockOperator              # over the chain blocks, see the module docstring
    block_names: list[str]
    block_dims: list[int]
    basis_seed: Optional[int]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def block_ranges(self) -> dict[str, slice]:
        """The index range of each named block."""
        return dict(zip(self.block_names, block_slices(self.block_dims)))

    def as_pair(self) -> CovariantPair:
        return CovariantPair(self.pair.system, self.rho, self.v, self.pair.depth)


def coisometric_extend(pair: CovariantPair, n_levels: int, strategy,
                       tol: Tolerance = DEFAULT_TOL, basis_seed: Optional[int] = None,
                       level_strategies=None) -> ExtensionChain:
    """Assemble the truncated coisometric extension with ``n_levels`` defect blocks.

    ``level_strategies`` optionally overrides the strategy per level; mixed
    chains realize the non-uniqueness of the construction and are only built
    when explicitly requested this way.  ``basis_seed`` seeds one generator
    for the whole chain, from which each level in turn draws a Haar unitary
    of its ``pi_hat``'s commutant, one U(r_b) factor per block, that moves
    its defect basis (:func:`~covdilate.covariant.two_step`).  Two seeds give
    chains that are unitarily equivalent, with the same ``rho``, but not
    equal: the freedom in (rho, V) that fixes H and every level's
    representation.
    """
    if n_levels < 1:
        raise StrategyInvalid(
            "n_levels >= 1 required: with zero defect blocks the truncated "
            "coisometry identity has no content")
    system = pair.system
    if system.is_tower:
        if pair.depth is None:
            raise DepthExceeded("tower pairs need an explicit check depth")
        if pair.depth + n_levels + 1 > system.d_max:
            raise DepthExceeded(
                f"depth budget {pair.depth} + {n_levels} + 1 exceeds d_max {system.d_max}")
    strategies = tuple(level_strategies) if level_strategies is not None \
        else tuple([strategy] * n_levels)
    if len(strategies) != n_levels:
        raise StrategyInvalid("one strategy per level required")

    t_depth = system.stinespring_depth(pair.depth)
    for strat in strategies:
        verify_strategy(system, strat, t_depth, tol)

    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels: list[TwoStepBlock] = []
    # level 0 extends (pi, T); level k extends (pi_hat_(k-1), 0), whose
    # defect Delta* is exactly I, so its defect space is span rho_k(A) W_k
    rep, t = pair.rep, pair.contraction
    for k, strat in enumerate(strategies):
        ext = extend_representation(system, rep, strat, pair.depth, tol)
        try:
            step = two_step(CovariantPair(system, rep, t, pair.depth), ext, tol, rng)
        except InvarianceViolation as exc:
            raise InvarianceViolation(f"level {k} {exc}") from exc
        levels.append(step)
        rep, t = step.pi_hat, np.zeros((step.pi_hat.dim,) * 2, dtype=complex)

    return _assemble(pair, strategies, levels, basis_seed)


def _assemble(pair: CovariantPair, strategies, levels, basis_seed) -> ExtensionChain:
    """(rho, V) on H + defect_0 + ...: T in the corner, each level's D_{k*} in
    the row of the previous block, and the row of the last block zero."""
    block_dims = [pair.space_dim] + [lv.dim for lv in levels]
    blocks = {(0, 0): pair.contraction}
    blocks.update({(k, k + 1): lv.d_star for k, lv in enumerate(levels)})
    v = BlockOperator(block_dims, block_dims, blocks)
    rho = DirectSumRep(tuple([pair.rep] + [lv.pi_hat for lv in levels]))
    return ExtensionChain(pair, strategies, levels, rho, v,
                          ["H"] + [f"defect-{k}" for k in range(len(levels))],
                          block_dims, basis_seed)


def verify_coisometric_extension(chain: ExtensionChain,
                                 tol: Tolerance = DEFAULT_TOL) -> ClauseReport:
    """Extension, covariance and truncated-coisometry clauses for the chain."""
    pair = chain.pair
    system = pair.system
    h = pair.space_dim
    rep = ClauseReport()
    rep.notes.append(TRUNCATION_NOTE)
    rep.notes.append(LEVEL_SPACE_NOTE)

    d = usable_depth(system, [pair.rep, chain.rho], 1, pair.depth)
    v = chain.v
    dims = v.rows

    def in_h(m):
        # an operator on H as a map H -> chain space landing in H
        return BlockOperator(dims, (h,), {(0, 0): m})

    rho = chain.rho
    # rho(a) is block-diagonal with rho(a)|H = parts[0](a): pi itself restricts exactly
    relations = [(v, rho, rho, 1)]
    if rho.parts[0] is not pair.rep:
        relations.append((in_h(np.eye(h, dtype=complex)), rho, DirectSumRep((pair.rep,)), 0))
    cov, *restr = relation_values(system, d, tol.residual_tol, *relations)
    restr = restr[0] if restr else 0.0
    rep.add(clause("chain/representation-restricts", "rho(a)|H = pi(a), rho(a) H in H",
                   restr, tol.residual_tol))

    rep.add(clause("chain/contraction-restricts", "V|H = T, V H in H",
                   residual(v.select(cols=[0]), in_h(pair.contraction), tol.residual_tol),
                   tol.residual_tol))

    rep.add(clause("chain/covariance", "V rho(alpha(a)) = rho(a) V",
                   cov, tol.residual_tol))

    # the projection onto every block but the truncated last one
    kept = BlockOperator.identity(dims, skip=(len(dims) - 1,))
    rep.add(clause("chain/coisometry", "V V* = P(all blocks but the truncated last)",
                   residual(v @ v.adjoint(), kept, tol.residual_tol),
                   tol.residual_tol))

    for k, lv in enumerate(chain.levels[1:], start=1):
        w, basis = lv.ext.isometry, lv.defect_basis
        rep.add(clause(f"chain/level-{k}/defect-embeds", "W_k defect_(k-1) in defect_k",
                       spectral_norm(w - basis @ (basis.conj().T @ w), tol.residual_tol),
                       tol.residual_tol))
        # how far the full algebra action moves the embedded previous
        # defect: only alpha(A) is guaranteed to preserve it
        check_d = usable_depth(system, [lv.ext.rho], 0, pair.depth)
        containment = _containment(system, check_d, lv.ext.rho, w)
        rep.notes.append(
            f"level {k}: full algebra action moves the embedded previous defect by "
            f"{containment:.3e} (diagnostic; only the dynamics' image preserves it)")
    return rep


def _containment(system, depth, rep, w) -> float:
    """max over the matrix units a at ``depth`` of ||(I - W W*) rep(a) W||,
    exactly, from the row groups of W (module docstring)."""
    dim, h = w.shape
    if h in (0, dim):
        return 0.0
    worst = 0.0
    for side, (n, r, s) in zip(system.algebra_view(depth).block_sizes, rep.layout):
        m = n // side * r           # rows per group; e_ij maps group j onto group i
        groups = w[s].reshape(side, m, h)
        for i, wi in enumerate(groups):
            # R_i of F_i = E_i - W W_i*, E_i the columns of I on group i
            tri = np.linalg.qr(np.eye(dim, m, -s.start - i * m) - w @ wi.conj().T, mode="r")
            worst = max(worst, float(_spectral_norms(tri @ groups).max()))
    return worst


@dataclass(eq=False)
class DefectDecomposition:
    """The defect-space bookkeeping behind the two-sided matricial form."""

    delta_h_basis: np.ndarray         # orthonormal basis of (delta H) inside H
    q_bases: list[np.ndarray]         # q_k basis inside defect-k coordinates
    dv_basis: BlockOperator           # embedding of D_V: chain blocks x summands
    summand_dims: list[int]
    row_map: BlockOperator            # K_V -> D_V coords (the defect row of U), read-only
    report: ClauseReport
    row_bounds: tuple = ()            # (low, top) of _row_bounds when _row_onto certifies

    @property
    def dv_dim(self) -> int:
        return sum(self.summand_dims)

    @property
    def summand_bases(self) -> list[np.ndarray]:
        """The basis of each summand of D_V inside its chain block."""
        return [self.delta_h_basis] + self.q_bases


def _row_onto(head, q_bases, tol: Tolerance) -> Optional[tuple]:
    """Whether the defect row is onto D_V, read off its pivots.

    The row is block upper-triangular with the pivots ``head`` = dH* delta
    and the q_k* on its diagonal (module docstring), so it is onto when
    every pivot is: y* row = 0 gives y_dH = 0 from the column of H, then
    y_q0 = 0 from that of defect-0, and so on.  q_k has orthonormal columns,
    so r_k = ||q_k* q_k - I||_F < 1 puts the squares of its singular values
    in [1 - r_k, 1 + r_k], with no SVD.  The cutoff is the one singular-value
    rule over the pivots, with sqrt(1 + max r_k) standing in for the q_k's
    largest singular value: an upper bound, so a pivot kept here is kept
    under the exact cutoff over the pivots too.  The head's singular values
    and the r_k of the q_k with columns certify the rank; None leaves it to
    the dense components of the row.
    """
    resid = [_isometry_defect(q) for q in q_bases if q.shape[1]]
    top = math.sqrt(1.0 + max(resid, default=0.0))
    s = np.zeros(0)
    if head is not None:
        ((_, s, _),) = ranked_svds([head], tol, compute_uv=False, top=top)
        if len(s) < head.shape[0]:
            return None
        top = max(top, float(s[0]))
    return (s, resid) if all(1.0 - r > rank_cutoff([], tol, top) ** 2 for r in resid) else None


def _row_bounds(row: BlockOperator, s, resid) -> tuple:
    """(low, top): a lower bound on the smallest and an upper bound on the
    largest singular value over the components of the defect row, from the
    head's singular values ``s`` and the r_k of :func:`_row_onto`, with no
    SVD (proof in the :mod:`covdilate.dilation` module docstring)."""
    lows, tops, lone = [], [], list(resid)
    head = row.blocks.get((0, 0))
    if head is not None:
        # [[A, X], [0, Q*]], A the head, X the corner and Q = q_0
        x, q = row.blocks.get((0, 1)), row.blocks.get((1, 1))
        low, top = float(s[-1]) ** 2, float(s[0]) ** 2
        if x is not None:
            top += float(np.linalg.norm(x)) ** 2
        if q is not None:
            r, e = lone.pop(0), float(np.linalg.norm(x @ q.conj().T))
            low, top = min(low, 1.0 - r) - e, max(top, 1.0 + r) + e
        lows.append(low)
        tops.append(top)
    lows += [1.0 - r for r in lone]
    tops += [1.0 + r for r in lone]
    return math.sqrt(max(min(lows, default=1.0), 0.0)), math.sqrt(max(tops, default=1.0))


def defect_decomposition(chain: ExtensionChain,
                         tol: Tolerance = DEFAULT_TOL) -> DefectDecomposition:
    """Split the defect space of V into delta(H) and the per-level complements.

    The direct sum delta(H) + q_0(defect_0) + ... is not the defect subspace
    of V literally; the defect row [.. q_1 X delta] identifies the two
    canonically, which is certified by checking row* row = I - V* V and that
    the row is onto.  Every operator here keeps the chain's block layout
    (see the module docstring).
    """
    pair = chain.pair
    system = pair.system
    level0 = chain.levels[0]
    # the roots two_step took, when it took them at this tolerance
    roots = level0.roots
    delta, delta_star = roots[1:] if roots and roots[0] == tol else defect_roots(pair, tol)
    rep = ClauseReport()

    delta_h_basis, _ = orthonormal_span(delta, tol)

    w0 = level0.ext.isometry
    # q_k: the complement, in defect-k coordinates, of what the previous
    # space embeds there (W delta* H at level 0, W_k defect_(k-1) above):
    # the left singular vectors past the rank; f_0, those up to it at level
    # 0, spans W delta* H for X below
    q_bases = []
    for k, lv in enumerate(chain.levels):
        seed = w0 @ delta_star if k == 0 else lv.ext.isometry
        ((u, s, _),) = ranked_svds([lv.defect_basis.conj().T @ seed], tol, full_matrices=True)
        f_rank = len(s)
        q = _canonical_phases(u[:, f_rank:])
        if f_rank + q.shape[1] != lv.dim:
            raise DecompositionMismatch(
                f"defect-{k} does not split: {f_rank} + {q.shape[1]} != {lv.dim}")
        if k == 0:
            f0 = _canonical_phases(u[:, :f_rank])
        q_bases.append(q)
    del u                   # the last level's full U, held no longer than its split

    dims = chain.v.rows
    bases = [delta_h_basis] + q_bases
    summand_dims = [b.shape[1] for b in bases]
    dv_basis = BlockOperator.diagonal(bases)

    # X = (-T* W*|span(W delta* H)) + q_0, mapping defect-0 into D_V
    t = pair.contraction
    upper = delta_h_basis.conj().T @ (-t.conj().T) @ w0.conj().T \
        @ level0.defect_basis @ (f0 @ f0.conj().T)

    # T delta = delta_star T (used implicitly by X mapping into delta H)
    rep.add(clause("defect/intertwine", "T (I-T*T)^1/2 = (I-TT*)^1/2 T",
                   residual(t @ delta, delta_star @ t, tol.residual_tol), tol.residual_tol))

    # defect row of the two-sided form: the summands' adjoints on the
    # diagonal, with X in the column of defect-0
    row = BlockOperator.diagonal([delta_h_basis.conj().T @ delta]
                                 + [q.conj().T for q in q_bases])
    row_map = BlockOperator(row.rows, row.cols, {**row.blocks, (0, 1): upper})
    for b in row_map.blocks.values():   # an explicit record's bounds are read off them
        b.flags.writeable = False

    v = chain.v
    gram_res = residual(row_map.adjoint() @ row_map,
                        BlockOperator.identity(dims) - v.adjoint() @ v, tol.residual_tol)
    rep.add(clause("defect/row-gram", "row* row = I - V* V", gram_res, tol.residual_tol))
    dv_dim = sum(summand_dims)
    pivots = _row_onto(row.blocks.get((0, 0)), q_bases, tol)
    row_rank = dv_dim if pivots else \
        sum(len(s) for _, s, _ in ranked_svds(row_map.component_blocks(), tol,
                                               compute_uv=False))
    rep.add(clause("defect/row-onto", "defect row maps onto D_V",
                   0.0 if row_rank == dv_dim else 1.0, 0.5,
                   note=f"rank {row_rank} of {dv_dim}"))
    rep.notes.append("D_V is identified with the defect space of V through the "
                     "polar part of the defect row; the two subspaces of the chain "
                     "space differ in general")

    d = usable_depth(system, [chain.rho], 1, pair.depth)
    (inv,) = invariance_values(system, d, tol.residual_tol, (dv_basis, chain.rho, 1))

    # dv and rho(alpha(a)) are both block-diagonal over the chain blocks, so
    # the compression dv* rho(alpha(a)) dv has no off-diagonal block
    block_res = 0.0
    rep.add(clause("defect/invariant", "rho(alpha(a)) preserves D_V",
                   inv, tol.residual_tol))
    rep.add(clause("defect/diagonal-form", "rho1 = diag of summand compressions",
                   block_res, tol.residual_tol))

    if not rep.clauses[1].passed or not rep.clauses[2].passed:
        raise DecompositionMismatch("defect row fails to identify D_V with the "
                                    "defect space of V")
    return DefectDecomposition(delta_h_basis, q_bases, dv_basis, summand_dims, row_map, rep,
                               _row_bounds(row_map, *pivots) if pivots else ())

