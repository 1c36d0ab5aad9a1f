"""The dense clause code the block operators replaced, kept as a test oracle.

The package evaluates every whole-chain and whole-dilation clause per
connected component of the operators' block patterns.  This module is the
route it replaced: it densifies the chain's V, the defect row, D_V's
embedding, the dilation operators and the direct-sum images, and evaluates
the same clauses on total-side matrices with exact values (no threshold).
Each clause gives ``(value, scale)``, ``scale`` the largest norm of an
operand, so that a block value can be held to |block - dense| <=
eps (1 + scale).  ``dense_schaffer_dilate`` is the dense isometric dilation
of a chain pair, for certifying the block construction unitarily
equivalent to it.

``chain_coordinate_values`` is the route the whole-chain sweeps took
before the frame kernel: V, D_V and its complement against the block images
of the chain's rho, whose level parts are the ``pi_hat`` s.
``complement_invariance``
values an invariance clause with a dense complement and dense images, the
form of the extension step's gate and of the level containment note before
the frame kernel.  ``orthonormal_complement`` is the complement the package
took before it valued every invariance clause in the projector form.

``dense_orbit_rank`` is the rank ``dilation/minimal`` took before it read
the pivots of a record's block-echelon power orbit: the singular-value rank
of the dense orbit.  ``densified`` writes a record's W and E out as dense
matrices, so that ``dilation_intertwiner`` builds its u by least squares on
the dense orbits, the route it took before the pivot blocks.

``oracle_schaffer_dilate`` is the isometric dilation as the package built
it before each defect group's copy basis, head and pivot SVD came from the
factorization behind its defect root (now the SVD of the group's columns):
the dense root Delta_c by ``psd_sqrt``, its range B_c from one SVD over the
groups, and the head B_c* Delta_c.  It holds no pivot factors, so its pivots go through SVDs.

``choi_route_chain`` builds every adapted level the way the package builds
level 0: the minimal dilation of phi_k = rep_k o tau read off the Choi
blocks of phi_k (side n_b dim rep_k), where the package composes the levels
above the first from the transfer's Kraus form.

``relation_value`` values a relation X sigma(alpha^s(a)) = tau(a) X the
way each relation site swept before ``covariant.relation_values``: X and
both images dense, exact, with no threshold and no frame kernel.
``invariance_value`` values an invariance ||(I - B B*) g(alpha^s(a)) B||
the same way, B dense and against its dense complement, for
``covariant.invariance_values``.

``RotatedRep`` is a representation in a rotated basis, Q K(x) Q*: the
package builds every representation in Kraus coordinates, so a rotated one
exists only here, to drive the routes that take any representation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from covdilate.algebra import ChunkRep
from covdilate.covariant import (CovariantPair, DirectSumRep, HBExtension,
                                 RestrictedRep, ShiftedRep, defect_floor, defect_roots,
                                 resolve_transfer, transfer_images, two_step,
                                 usable_depth)
from covdilate.cpmaps import KrausRep, kraus_dilation, unit_image_chois
from covdilate.dilation import (DilationRecord, _defect_groups, _schaffer_record,
                                power_orbit)
from covdilate.extension import _assemble
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, _canonical_phases, as_blocks,
                                basis_sweep, block_diag, block_slices, orthonormal_span,
                                psd_sqrt, ranked_svds, residual, spectral_norm, svd_rank)


def orthonormal_complement(basis: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the complement of ``span(basis)``: the left
    singular vectors of the basis beyond its rank, from one full SVD of the
    D x k basis, with canonical column phases."""
    ((u, s, _),) = ranked_svds([basis], tol, full_matrices=True)
    return _canonical_phases(u[:, len(s):])


@dataclass(eq=False)
class RotatedRep(ChunkRep):
    """x -> Q K(x) Q* for a representation K and a unitary Q, image by
    image: a plain representation with no Kraus form to read."""

    inner: object
    q: np.ndarray

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def max_depth(self):
        return self.inner.max_depth

    def images(self, coords, depth) -> np.ndarray:
        return self.q @ np.asarray(self.inner.images(coords, depth)) @ self.q.conj().T


def _dense_images(rep, c, d):
    return np.asarray(rep.images(c, d))


def relation_value(system, depth, x, tau, sigma, shifts: int) -> float:
    """max over the basis at ``depth`` of residual(X sigma(alpha^s(a)),
    tau(a) X), exact, from dense images and a dense X."""
    x = np.asarray(x)
    (value,) = basis_sweep(
        system.basis_size(depth),
        lambda c: (_dense_images(sigma, *system.alpha_coords(c, depth, shifts)),
                   _dense_images(tau, c, depth)),
        lambda s, t: (x @ s, t @ x))
    return value


def invariance_value(system, depth, basis, rep, shifts: int) -> float:
    """max over the basis at ``depth`` of ||C* rep(alpha^s(a)) B||, exact,
    from dense images, B dense (a block B densified) and C the
    :func:`orthonormal_complement` of B."""
    b = np.asarray(basis)
    comp_h = orthonormal_complement(b).conj().T
    if comp_h.shape[0] == 0 or b.shape[1] == 0:
        return 0.0
    (value,) = basis_sweep(
        system.basis_size(depth),
        lambda c: (_dense_images(rep, *system.alpha_coords(c, depth, shifts)) @ b,),
        lambda y: comp_h @ y)
    return value


def _operand(clause, k):
    # operand k of a pair clause; a one-stack clause is its own operand
    def pick(*imgs):
        term = clause(*imgs)
        return term[k] if isinstance(term, tuple) else term
    return pick


def _sweep_values(n, images, *clauses) -> list:
    """(exact value, largest operand norm) of each clause over the sweep."""
    values = basis_sweep(n, images, *clauses)
    norms = basis_sweep(n, images, *[_operand(c, k) for c in clauses for k in (0, 1)])
    return [(v, max(norms[2 * k], norms[2 * k + 1])) for k, v in enumerate(values)]


def _pair(a, b):
    return residual(a, b), max(spectral_norm(a), spectral_norm(b))


def chain_values(chain, tol=DEFAULT_TOL) -> dict:
    """The chain clauses of ``verify_coisometric_extension``, dense."""
    pair = chain.pair
    system = pair.system
    h = pair.space_dim
    total = chain.total_dim
    v = np.asarray(chain.v)
    d = usable_depth(system, [pair.rep, chain.rho], 1, pair.depth)

    def in_h(m):
        col = np.zeros(m.shape[:-2] + (total, h), dtype=complex)
        col[..., :h, :] = m
        return col

    restr, cov = _sweep_values(
        system.basis_size(d),
        lambda c: (_dense_images(chain.rho, c, d),
                   _dense_images(chain.rho, *system.alpha_coords(c, d)),
                   pair.rep.images(c, d)),
        lambda ra, raa, pa: (ra[..., :h], in_h(pa)),
        lambda ra, raa, pa: (v @ raa, ra @ v))
    kept = np.eye(total, dtype=complex)
    last = block_slices(chain.block_dims)[-1]
    kept[last, last] = 0.0
    return {"chain/representation-restricts": restr,
            "chain/contraction-restricts": _pair(v[:, :h], in_h(pair.contraction)),
            "chain/covariance": cov,
            "chain/coisometry": _pair(v @ v.conj().T, kept)}


def defect_values(chain, dd, tol=DEFAULT_TOL) -> tuple:
    """The defect clauses of ``defect_decomposition`` with a total-side
    complement of D_V, and the rank of the dense defect row."""
    pair = chain.pair
    system = pair.system
    v = np.asarray(chain.v)
    dv_basis = np.asarray(dd.dv_basis)
    row_map = np.asarray(dd.row_map)
    eye = np.eye(chain.total_dim, dtype=complex)
    out = {"defect/row-gram": _pair(row_map.conj().T @ row_map, eye - v.conj().T @ v)}
    rank = svd_rank(row_map, tol)
    out["defect/row-onto"] = (0.0 if rank == dd.dv_dim else 1.0, 0.0)

    comp = orthonormal_complement(dv_basis, tol)
    at = block_slices(chain.block_dims)

    def off(x):
        if comp.shape[1] == 0 or dv_basis.shape[1] == 0:
            return np.zeros((len(x), 0, 0))
        return comp.conj().T @ x @ dv_basis

    def diagonal(x):
        parts = [b.conj().T @ x[..., s, s] @ b for b, s in zip(dd.summand_bases, at)]
        return dv_basis.conj().T @ x @ dv_basis, block_diag(parts)

    shifted = ShiftedRep(chain.rho, system, 1)
    d = usable_depth(system, [chain.rho], 1, pair.depth)
    inv, diag = _sweep_values(system.basis_size(d),
                              lambda c: (_dense_images(shifted, c, d),), off, diagonal)
    out["defect/invariant"] = inv
    out["defect/diagonal-form"] = diag
    return out, rank


def chain_coordinate_values(chain, dd) -> dict:
    """The whole-chain sweeps of ``verify_coisometric_extension`` and
    ``defect_decomposition`` in the chain's own coordinates, exact: V and
    D_V against the block images of ``chain.rho``.  The complement of D_V is
    taken block by block with :func:`orthonormal_complement`; the clause
    value does not depend on which orthonormal complement is used."""
    pair = chain.pair
    system = pair.system
    h = pair.space_dim
    v = chain.v
    dims = v.rows

    def in_h(m):
        return BlockOperator(dims, (h,), {(0, 0): m})

    d = usable_depth(system, [pair.rep, chain.rho], 1, pair.depth)
    restr, cov = _sweep_values(
        system.basis_size(d),
        lambda c: (chain.rho.images(c, d), chain.rho.images(*system.alpha_coords(c, d)),
                   pair.rep.images(c, d)),
        lambda ra, raa, pa: (ra.select(cols=[0]), in_h(pa)),
        lambda ra, raa, pa: (v @ raa, ra @ v))

    dv_basis = dd.dv_basis
    complement = BlockOperator.diagonal([orthonormal_complement(b) for b in dd.summand_bases])
    dv_h, comp_h = dv_basis.adjoint(), complement.adjoint()

    def diagonal(x_dv):
        compressed = dv_h @ x_dv
        parts = {key: b for key, b in compressed.blocks.items() if key[0] == key[1]}
        return compressed, BlockOperator(compressed.rows, compressed.cols, parts)

    shifted = ShiftedRep(chain.rho, system, 1)
    d = usable_depth(system, [chain.rho], 1, pair.depth)
    inv, diag = _sweep_values(system.basis_size(d),
                              lambda c: (shifted.images(c, d) @ dv_basis,),
                              lambda x_dv: comp_h @ x_dv, diagonal)
    return {"chain/representation-restricts": restr, "chain/covariance": cov,
            "defect/invariant": inv, "defect/diagonal-form": diag}


def complement_invariance(system, depth, rep, basis) -> tuple:
    """(max over the basis at ``depth`` of ||C* rep(a) B||, the largest
    ||rep(a) B||), with dense images and C the :func:`orthonormal_complement`
    of B."""
    comp = orthonormal_complement(basis)
    if comp.shape[1] == 0 or basis.shape[1] == 0:
        return 0.0, 0.0
    comp_h = comp.conj().T
    value, scale = basis_sweep(system.basis_size(depth),
                               lambda c: (_dense_images(rep, c, depth) @ basis,),
                               lambda y: comp_h @ y, lambda y: y)
    return value, scale


def dilation_values(rec, prefix: str, tol=DEFAULT_TOL) -> dict:
    """Covariance, isometry (isometric records) and interior unitarity of a
    dilation record, on its dense operator."""
    pair = rec.source_pair
    system = pair.system
    w = np.asarray(rec.w)
    total = rec.total_dim
    d = usable_depth(system, [rec.eta], 1, pair.depth)
    (cov,) = _sweep_values(system.basis_size(d),
                           lambda c: (_dense_images(rec.eta, c, d),
                                      _dense_images(rec.eta, *system.alpha_coords(c, d))),
                           lambda ea, eaa: (w @ eaa, ea @ w))
    name = "dilation" if prefix == "unitary" else prefix
    out = {f"{name}/covariance": cov}
    if prefix == "unitary":
        keep = np.eye(total, dtype=complex)
        keep[rec.boundary_cols, rec.boundary_cols] = 0.0
        out["dilation/isometry"] = _pair(w.conj().T @ w, keep)
    eye = np.eye(total, dtype=complex)
    boundary = np.concatenate([rec.boundary_rows, rec.boundary_cols]).astype(int)
    for clause, gram in (("isometric-interior", w.conj().T @ w - eye),
                         ("coisometric-interior", w @ w.conj().T - eye)):
        masked = gram.copy()
        masked[:, boundary] = 0.0
        out[f"{prefix}/{clause}"] = (spectral_norm(masked), spectral_norm(w) ** 2)
    return out


def dense_orbit_rank(rec, tol=DEFAULT_TOL) -> int:
    """The rank of the dense power orbit [E, W E, ..., W^N E]."""
    orbit = power_orbit(np.asarray(rec.w), np.asarray(rec.source_embed), rec.copies)
    return svd_rank(np.hstack(orbit), tol)


def densified(rec) -> DilationRecord:
    """The record with W and E as dense matrices: no block pattern to read."""
    return replace(rec, w=np.asarray(rec.w), source_embed=np.asarray(rec.source_embed))


def dense_schaffer_dilate(pair: CovariantPair, copies: int, tol=DEFAULT_TOL) -> DilationRecord:
    """The isometric dilation built on the dense contraction: one defect
    root and one defect basis over the whole space."""
    t = np.asarray(pair.contraction)
    dense_pair = CovariantPair(pair.system, pair.rep, t, pair.depth)
    delta, _ = defect_roots(dense_pair, tol)
    basis, r = orthonormal_span(delta, tol)
    h = pair.space_dim
    dims = [h] + [r] * copies
    at = block_slices(dims)
    w = np.zeros((sum(dims),) * 2, dtype=complex)
    w[at[0], at[0]] = t
    w[at[1], at[0]] = basis.conj().T @ delta
    for j in range(1, copies):
        w[at[j + 1], at[j]] = np.eye(r)
    eta = DirectSumRep(tuple([pair.rep] + [RestrictedRep(ShiftedRep(pair.rep, pair.system, n),
                                                         basis)
                                           for n in range(1, copies + 1)]))
    embed = np.eye(sum(dims), h, dtype=complex)
    names = ["H"] + [f"copy-{j}" for j in range(1, copies + 1)]
    return DilationRecord("isometric", names, dims, list(range(copies + 1)), eta, w,
                          dense_pair, embed, copies, origin_pair=dense_pair,
                          origin_embed=embed,
                          boundary_cols=np.arange(at[-1].start, at[-1].stop))


def oracle_schaffer_dilate(pair: CovariantPair, copies: int, tol=DEFAULT_TOL) -> DilationRecord:
    """``schaffer_dilate`` by the dense defect roots: per group Delta_c =
    (I - T_g* T_g)^(1/2), B_c the canonical-phase range of Delta_c under one
    rank cutoff over the groups, and the copy-1 head B_c* Delta_c."""
    t = as_blocks(pair.contraction)
    groups = _defect_groups(t)
    floor = defect_floor(tol)
    deltas = []
    for g in groups:
        tg = t.select(cols=g)
        n = sum(tg.cols)
        deltas.append(psd_sqrt(np.eye(n, dtype=complex) - (tg.adjoint() @ tg).dense(), floor))
    bases = [_canonical_phases(u) for u, _, _ in ranked_svds(deltas, tol)]
    return _schaffer_record(pair, copies, [(g, b, b.conj().T @ dl)
                                           for g, b, dl in zip(groups, bases, deltas)
                                           if b.shape[1]])


def choi_route_step(system, rep, strategy, check_depth, tol=DEFAULT_TOL) -> HBExtension:
    """The adapted extension step of ``rep`` from the Choi blocks of
    phi = rep o tau, whatever ``rep`` is."""
    working = system.stinespring_depth(check_depth)
    tau = resolve_transfer(system, strategy, tol)
    view = system.algebra_view(working)
    units = transfer_images(system, rep, tau, working)
    dil = kraus_dilation(view, unit_image_chois(view, units, rep.dim), tol)
    return HBExtension(KrausRep(system, working, dil), dil.isometry, strategy.kind, tau,
                       rep, system, check_depth, working, tol)


def choi_route_chain(pair, n_levels, strategy, tol=DEFAULT_TOL, basis_seed=None):
    """coisometric_extend with every level's step from :func:`choi_route_step`;
    the seed's defect-basis unitaries are drawn as the package draws them."""
    system = pair.system
    rng = np.random.default_rng(basis_seed) if basis_seed is not None else None
    levels = []
    rep, t = pair.rep, pair.contraction
    for _ in range(n_levels):
        ext = choi_route_step(system, rep, strategy, pair.depth, tol)
        step = two_step(CovariantPair(system, rep, t, pair.depth), ext, tol, rng)
        levels.append(step)
        rep, t = step.pi_hat, np.zeros((step.dim,) * 2, dtype=complex)
    return _assemble(pair, (strategy,) * n_levels, levels, basis_seed)
