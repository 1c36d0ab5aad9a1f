"""Truncated inductive coisometric extension of a covariant pair.

``coisometric_extend(pair, n_levels, ...)`` stacks ``n_levels`` extension
steps: level 0 is the two-step block construction on H, and each further
level applies the extension step to the previous restricted representation
on its defect space.  The assembled pair ``(rho, V)`` lives on

    H + defect_0 + defect_1 + ... + defect_{n_levels-1}

with ``V`` superdiagonal and the row of the last block zero by truncation.
Consequently ``V V*`` equals the projection onto all blocks except the last
one exactly, which is how the coisometry clause is stated throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covariant import (CovariantPair, DirectSumRep, HBExtension,
                        RestrictedRep, ShiftedRep, defect_roots,
                        extend_representation, haar_unitary,
                        invariance_residual, leaves_span, two_step,
                        usable_depth, verify_strategy)
from .errors import (DecompositionMismatch, DepthExceeded,
                     InvarianceViolation, LevelMismatch, StrategyInvalid)
from .numerics import (DEFAULT_TOL, Tolerance, basis_sweep, block_diag,
                       block_offsets, orthonormal_complement, orthonormal_span,
                       residual, spectral_norm)
from .report import ClauseReport, clause

TRUNCATION_NOTE = ("truncated construction: the ambient space keeps n_levels defect "
                   "blocks and the row of the last block is zero, so the coisometry "
                   "identity reads V V* = P onto all blocks but the last")
LEVEL_SPACE_NOTE = ("the defect space of level k is built, and lives, inside the "
                    "level-k dilation space")


@dataclass(eq=False)
class ChainLevel:
    ext: HBExtension
    defect_basis: np.ndarray     # orthonormal columns inside the level's dilation space
    d_star: np.ndarray           # map defect_k -> previous space, in basis coordinates
    pi_hat: RestrictedRep
    embed_residual: float        # || (I - B B*) W_k ||, isometric embedding of the previous defect
    containment_defect: float    # diagnostic: how far pi_k(A) moves the embedded defect

    @property
    def dim(self) -> int:
        return self.defect_basis.shape[1]


@dataclass(eq=False)
class ExtensionChain:
    pair: CovariantPair
    strategies: tuple
    levels: list[ChainLevel]
    rho: DirectSumRep
    v: np.ndarray
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
    def block_offsets(self) -> list[int]:
        return block_offsets(self.block_dims)

    def kept_projection(self) -> np.ndarray:
        """Projection onto every block except the truncated last one."""
        p = np.eye(self.total_dim, dtype=complex)
        lo = self.block_offsets[-1]
        p[lo:, lo:] = 0.0
        return p

    def as_pair(self) -> CovariantPair:
        return CovariantPair(self.pair.system, self.rho, self.v, self.pair.depth)


def coisometric_extend(pair: CovariantPair, n_levels: int, strategy,
                       tol: Tolerance = DEFAULT_TOL, basis_seed: Optional[int] = None,
                       level_strategies=None) -> ExtensionChain:
    """Assemble the truncated coisometric extension with ``n_levels`` defect blocks.

    ``level_strategies`` optionally overrides the strategy per level; mixed
    chains realize the non-uniqueness of the construction and are only built
    when explicitly requested this way.
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

    t_depth = system.stinespring_depth(pair.depth) if system.is_tower else None
    seen = []
    for strat in strategies:
        if not any(strat is s for s in seen):
            verify_strategy(system, strat, t_depth, tol)
            seen.append(strat)

    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels: list[ChainLevel] = []

    ext0 = extend_representation(system, pair.rep, strategies[0], pair.depth, tol, rng)
    step0 = two_step(pair, ext0, tol, rng)
    levels.append(ChainLevel(ext0, step0.defect_basis, step0.d_star, step0.pi_hat,
                             0.0, 0.0))

    for k in range(1, n_levels):
        prev = levels[-1]
        ext = extend_representation(system, prev.pi_hat, strategies[k],
                                    pair.depth, tol, rng)
        w = ext.isometry
        span_depth = ext.rho.max_depth if system.is_tower else None
        # defect_k = span rho_k(A) W_k defect_(k-1): the span on which the
        # step certified its minimality, as defect_(k-1) is the space it extends
        basis = ext.span
        rank = basis.shape[1]
        if rng is not None and rank:
            basis = basis @ haar_unitary(rank, rng)
        inv = invariance_residual(system, span_depth, ext.rho, basis, tol)
        if inv > tol.residual_tol:
            raise InvarianceViolation(f"level {k} defect space drifts by {inv:.3e}")
        embed_res = spectral_norm(w - basis @ (basis.conj().T @ w))
        d_star = w.conj().T @ basis
        pi_hat = RestrictedRep(ext.rho, basis)
        # how far the full algebra action moves the embedded previous defect:
        # only alpha(A) is guaranteed to preserve it
        check_d = usable_depth(system, [ext.rho], 0, pair.depth)
        containment = invariance_residual(system, check_d, ext.rho, w, tol)
        levels.append(ChainLevel(ext, basis, d_star, pi_hat, float(embed_res),
                                 float(containment)))

    return _assemble(pair, strategies, levels, basis_seed)


def _assemble(pair: CovariantPair, strategies, levels, basis_seed) -> ExtensionChain:
    """(rho, V) on H + defect_0 + ...: T in the corner, each level's D_{k*} in
    the row of the previous block, and the row of the last block zero."""
    block_dims = [pair.space_dim] + [lv.dim for lv in levels]
    total = sum(block_dims)
    offs = block_offsets(block_dims)
    v = np.zeros((total, total), dtype=complex)
    v[:pair.space_dim, :pair.space_dim] = pair.contraction
    for k, lv in enumerate(levels):
        v[offs[k]:offs[k] + block_dims[k], offs[k + 1]:offs[k + 1] + lv.dim] = lv.d_star
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

    def in_h(m):
        # operators on H as maps H -> chain space landing in H
        col = np.zeros(m.shape[:-2] + (chain.total_dim, h), dtype=complex)
        col[..., :h, :] = m
        return col

    restr, cov = basis_sweep(
        system.basis_size(d),
        lambda c: (chain.rho.images(c, d), chain.rho.images(*system.alpha_coords(c, d)),
                   pair.rep.images(c, d)),
        lambda ra, raa, pa: (ra[..., :h], in_h(pa)),
        lambda ra, raa, pa: (chain.v @ raa, ra @ chain.v))
    rep.add(clause("chain/representation-restricts", "rho(a)|H = pi(a), rho(a) H in H",
                   restr, tol.residual_tol))

    rep.add(clause("chain/contraction-restricts", "V|H = T, V H in H",
                   residual(chain.v[:, :h], in_h(pair.contraction)), tol.residual_tol))

    rep.add(clause("chain/covariance", "V rho(alpha(a)) = rho(a) V",
                   cov, tol.residual_tol))

    rep.add(clause("chain/coisometry", "V V* = P(all blocks but the truncated last)",
                   residual(chain.v @ chain.v.conj().T, chain.kept_projection()),
                   tol.residual_tol))

    for k, lv in enumerate(chain.levels):
        if k == 0:
            continue
        rep.add(clause(f"chain/level-{k}/defect-embeds", "W_k defect_(k-1) in defect_k",
                       lv.embed_residual, tol.residual_tol))
        rep.notes.append(
            f"level {k}: full algebra action moves the embedded previous defect by "
            f"{lv.containment_defect:.3e} (diagnostic; only the dynamics' image "
            "preserves it)")
    return rep


@dataclass(eq=False)
class DefectDecomposition:
    """The defect-space bookkeeping behind the two-sided matricial form."""

    chain: ExtensionChain
    delta: np.ndarray                 # (I - T*T)^(1/2) on H
    delta_h_basis: np.ndarray         # orthonormal basis of (delta H) inside H
    q_bases: list[np.ndarray]         # q_k basis inside defect-k coordinates
    dv_basis: np.ndarray              # ambient embedding of D_V (total x dv_dim)
    summand_dims: list[int]
    x_map: np.ndarray                 # defect-0 coords -> D_V coords
    row_map: np.ndarray               # K_V -> D_V coords (the defect row of U)
    rho1: RestrictedRep               # restriction of rho o alpha to D_V
    report: ClauseReport

    @property
    def dv_dim(self) -> int:
        return self.dv_basis.shape[1]


def defect_decomposition(chain: ExtensionChain,
                         tol: Tolerance = DEFAULT_TOL) -> DefectDecomposition:
    """Split the defect space of V into delta(H) and the per-level complements.

    The direct sum delta(H) + q_0(defect_0) + ... is not the defect subspace
    of V literally; the defect row [.. q_1 X delta] identifies the two
    canonically, which is certified by checking row* row = I - V* V and that
    the row is onto.
    """
    pair = chain.pair
    system = pair.system
    h = pair.space_dim
    delta, delta_star = defect_roots(pair, tol)
    rep = ClauseReport()

    delta_h_basis, r_delta = orthonormal_span(delta, tol)

    level0 = chain.levels[0]
    w0 = level0.ext.isometry
    # q_k: the complement, in defect-k coordinates, of what the previous
    # space embeds there (W delta* H at level 0, W_k defect_(k-1) above)
    f_bases, q_bases = [], []
    for k, lv in enumerate(chain.levels):
        seed = w0 @ delta_star if k == 0 else lv.ext.isometry
        f, f_rank = orthonormal_span(lv.defect_basis.conj().T @ seed, tol)
        q = orthonormal_complement(f, lv.dim, tol)
        if f_rank + q.shape[1] != lv.dim:
            raise DecompositionMismatch(
                f"defect-{k} does not split: {f_rank} + {q.shape[1]} != {lv.dim}")
        f_bases.append(f)
        q_bases.append(q)
    f0, q0 = f_bases[0], q_bases[0]

    offs = chain.block_offsets
    summand_dims = [r_delta] + [q.shape[1] for q in q_bases]
    dv_dim = sum(summand_dims)
    dv_basis = block_diag([delta_h_basis] + q_bases)

    # X = (-T* W*|span(W delta* H)) + q_0, mapping defect-0 into D_V
    t = pair.contraction
    x_map = np.zeros((dv_dim, level0.dim), dtype=complex)
    upper = delta_h_basis.conj().T @ (-t.conj().T) @ w0.conj().T \
        @ level0.defect_basis @ (f0 @ f0.conj().T)
    x_map[:r_delta, :] = upper
    x_map[r_delta:r_delta + q0.shape[1], :] = q0.conj().T

    # T delta = delta_star T (used implicitly by X mapping into delta H)
    rep.add(clause("defect/intertwine", "T (I-T*T)^1/2 = (I-TT*)^1/2 T",
                   residual(t @ delta, delta_star @ t), tol.residual_tol))

    # defect row of the two-sided form, one column block per chain block
    row_map = block_diag([delta_h_basis.conj().T @ delta] + [q.conj().T for q in q_bases])
    row_map[:, offs[1]:offs[1] + level0.dim] = x_map

    eye = np.eye(chain.total_dim, dtype=complex)
    gram_res = residual(row_map.conj().T @ row_map, eye - chain.v.conj().T @ chain.v)
    rep.add(clause("defect/row-gram", "row* row = I - V* V", gram_res, tol.residual_tol))
    _, row_rank = orthonormal_span(row_map.conj().T, tol)
    rep.add(clause("defect/row-onto", "defect row maps onto D_V",
                   0.0 if row_rank == dv_dim else 1.0, 0.5,
                   note=f"rank {row_rank} of {dv_dim}"))
    rep.notes.append("D_V is identified with the defect space of V through the "
                     "polar part of the defect row; the two subspaces of the chain "
                     "space differ in general")

    shifted = ShiftedRep(chain.rho, system, 1)
    d = usable_depth(system, [chain.rho], 1, pair.depth)
    rho1 = RestrictedRep(shifted, dv_basis)

    def diagonal(x):
        # rho1 must agree with the block-diagonal compressions onto the
        # summands; rho(alpha(a)) carries pi(alpha(a)) and each level's
        # pi_hat(alpha(a)) as its diagonal blocks
        parts = [delta_h_basis.conj().T @ x[..., :h, :h] @ delta_h_basis]
        for k, q in enumerate(q_bases):
            lo, nk = offs[k + 1], chain.block_dims[k + 1]
            parts.append(q.conj().T @ x[..., lo:lo + nk, lo:lo + nk] @ q)
        return dv_basis.conj().T @ x @ dv_basis, block_diag(parts)

    off = leaves_span(dv_basis, tol) or (lambda x: np.zeros((len(x), 0, 0)))
    inv, block_res = basis_sweep(system.basis_size(d),
                                 lambda c: (shifted.images(c, d),), off, diagonal)
    rep.add(clause("defect/invariant", "rho(alpha(a)) preserves D_V",
                   inv, tol.residual_tol))
    rep.add(clause("defect/diagonal-form", "rho1 = diag of summand compressions",
                   block_res, tol.residual_tol))

    if not rep.clauses[1].passed or not rep.clauses[2].passed:
        raise DecompositionMismatch("defect row fails to identify D_V with the "
                                    "defect space of V")
    return DefectDecomposition(chain, delta, delta_h_basis, q_bases, dv_basis,
                               summand_dims, x_map, row_map, rho1, rep)


def restrict_chain(chain: ExtensionChain, n_levels: int) -> ExtensionChain:
    """The chain truncated to its first ``n_levels`` blocks (for consistency tests)."""
    if n_levels < 1 or n_levels > chain.n_levels:
        raise LevelMismatch(f"cannot restrict to {n_levels} levels")
    return _assemble(chain.pair, chain.strategies[:n_levels], chain.levels[:n_levels],
                     chain.basis_seed)
