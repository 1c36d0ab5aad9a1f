"""The Choi/Kraus dilation kernel against the Gram-form quotient it replaces.

The reference route below rebuilds an extension step the way the Gram form
defines it: the quotient of (matrix units) x H by the null space of
<a x h, b x h'> = <phi(a* b) h, h'>, with the representation acting by left
multiplication.  The kernel must give the same dimensions and a unitarily
equivalent step, certified by the package's own intertwiner.
"""

import numpy as np
import pytest

from covdilate.algebra import (FiniteDimCStarAlgebra, Representation, State,
                               StarHom, cyclic_summands, gns)
from covdilate.covariant import (AdaptedStrategy, DirectSumRep, FiniteDimSystem,
                                 GnsStrategy, HBExtension, QuotientRep,
                                 extend_representation, haar_unitary,
                                 resolve_transfer)
from covdilate.cpmaps import (CPMap, choi_blocks, compose_rep, kraus_dilation,
                              stinespring_gram, stinespring_minimal,
                              unit_image_chois)
from covdilate.equivalence import stinespring_intertwiner
from covdilate.errors import NotCP
from covdilate.numerics import DEFAULT_TOL, gram_quotient, spectral_norm
from covdilate.tower import TowerExpectation

from test_cpmaps import transpose_map

M2 = FiniteDimCStarAlgebra((2,))


def gram_route_extension(system, rep, strategy, check_depth, tol=DEFAULT_TOL,
                         rng=None) -> HBExtension:
    """Extension step through the Gram-form quotient (reference route)."""
    working = system.stinespring_depth(check_depth)
    tau = resolve_transfer(system, strategy, tol)

    def phi(y):
        return rep(tau(y))

    view = system.algebra_view(working)
    unit = system.coords(system.unit(working), working).reshape(view.dim, 1)

    def quotient(units, h):
        cmap, lift, rank = gram_quotient(stinespring_gram(view, units, h), tol)
        if rng is not None:
            q = haar_unitary(rank, rng)
            cmap = q @ cmap
            lift = lift @ q.conj().T
        rho = QuotientRep(system, working, view.dim, h, cmap, lift)
        return rho, cmap @ np.kron(unit, np.eye(h, dtype=complex))

    if isinstance(strategy, AdaptedStrategy):
        rho, w = quotient([phi(b) for b in system.basis(working)], rep.dim)
    else:
        span_basis = system.basis(check_depth)
        parts = []
        rows = []
        for xi, _ in cyclic_summands(np.array([rep(b) for b in span_basis]), rep.dim, tol):
            rho_s, w_s = quotient([np.vdot(xi, phi(b) @ xi)
                                   for b in system.basis(working)], 1)
            x1 = np.column_stack([rep(a) @ xi for a in span_basis])
            x2 = np.column_stack([rho_s(system.alpha_apply(a)) @ w_s[:, 0]
                                  for a in span_basis])
            rows.append(x2 @ np.linalg.pinv(x1, rcond=tol.rank_eps))
            parts.append(rho_s)
        rho, w = DirectSumRep(tuple(parts)), np.vstack(rows)
    return HBExtension(rho, w, strategy.kind, tau, rep, system, check_depth,
                       working, tol)


def gns_strategy(case):
    system = case.pair.system
    if system.is_tower:
        return GnsStrategy(TowerExpectation(system.tower, case.strategy.transfer.density))
    # alpha is an automorphism, so E = alpha o alpha^-1 is the identity
    return GnsStrategy(CPMap.identity(system.algebra))


def gram_rank(source, unit_images, h, tol=DEFAULT_TOL) -> int:
    return gram_quotient(stinespring_gram(source, unit_images, h), tol)[2]


@pytest.mark.parametrize("seeded", [False, True], ids=["plain", "seeded"])
@pytest.mark.parametrize("kind", ["adapted", "gns"])
def test_choi_route_equivalent_to_gram_route(corpus, built_chains, kind, seeded):
    """Differential oracle on the acceptance corpus: level 0 of every case and
    level 1 of every multi-level chain."""
    worst = 0.0
    steps = 0
    for case in corpus:
        pair = case.pair
        strategy = case.strategy if kind == "adapted" else gns_strategy(case)
        reps = [pair.rep]
        pi_hat = built_chains[case.name].levels[0].pi_hat
        if case.levels > 1 and pi_hat.dim:
            reps.append(pi_hat)
        for i, rep in enumerate(reps):
            rng = np.random.default_rng(31 + i) if seeded else None
            ref = gram_route_extension(pair.system, rep, strategy, pair.depth,
                                       DEFAULT_TOL, rng)
            new = extend_representation(pair.system, rep, strategy, pair.depth, DEFAULT_TOL)
            assert new.dilation_dim == ref.dilation_dim, case.name
            cert = stinespring_intertwiner(ref, new)
            assert cert.verdict == "equivalent", (case.name, cert.residuals)
            worst = max(worst, cert.max_residual)
            steps += 1
    assert steps > len(corpus)
    assert worst <= 1e-9


def test_stinespring_minimal_dimension_is_gram_rank():
    rng = np.random.default_rng(41)
    for blocks, h, n_kraus in [((2,), 2, 1), ((2, 1), 3, 2), ((3,), 2, 4),
                               ((2, 2), 3, 3)]:
        src = FiniteDimCStarAlgebra(blocks)
        n = sum(blocks)
        # phi(x) = sum_k V_k* x V_k with sum_k V_k* V_k = I
        shape = (n_kraus * n, h)
        q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        kraus = [q[k * n:(k + 1) * n] for k in range(n_kraus)]
        target = FiniteDimCStarAlgebra((h,))
        phi = CPMap.from_images(src, target, [
            target.element([sum(v.conj().T @ b.full_matrix() @ v for v in kraus)])
            for b in src.basis()])
        data = stinespring_minimal(phi)
        units = [phi(b).blocks[0] for b in src.basis()]
        assert data.dilation_dim == gram_rank(src, units, h)
        assert data.minimal
        assert data.isometry_residual <= 1e-12 and data.dilation_residual <= 1e-12


def test_gns_dimension_is_gram_rank():
    rng = np.random.default_rng(42)
    for blocks in [(1, 1), (2,), (2, 1), (3, 2)]:
        alg = FiniteDimCStarAlgebra(blocks)
        for rank in range(1, max(blocks) + 1):
            dens = []
            for n in blocks:
                z = rng.standard_normal((n, min(rank, n))) \
                    + 1j * rng.standard_normal((n, min(rank, n)))
                dens.append(z @ z.conj().T)
            total = sum(np.trace(d).real for d in dens)
            omega = State.from_densities(alg, [d / total for d in dens])
            data = gns(alg, omega)
            assert data.embed_dim == gram_rank(alg, list(omega.vector), 1)
            assert data.cyclic_span_rank == data.embed_dim
            assert data.vector_residual <= 1e-12


def test_rank_rule_uses_one_top_across_blocks():
    """Choi blocks 10^8 apart: the small block's weak direction sits below the
    global cutoff though it would pass a per-block one."""
    rng = np.random.default_rng(43)
    src = FiniteDimCStarAlgebra((2, 2))
    h = 2
    vecs = [haar_unitary(4, rng) for _ in range(2)]
    big = vecs[0][:, :2] @ np.diag([1.0, 0.5]) @ vecs[0][:, :2].conj().T
    small = 1e-8 * (vecs[1][:, :2] @ np.diag([1.0, 1e-3]) @ vecs[1][:, :2].conj().T)
    chois = [big, small]
    eigs = np.linalg.eigvalsh(small)
    assert np.sum(eigs > DEFAULT_TOL.rank_eps * eigs[-1]) == 2
    units = [c[p * h:(p + 1) * h, q * h:(q + 1) * h]
             for c in chois for p in range(2) for q in range(2)]
    assert all(np.array_equal(a, b) for a, b in
               zip(unit_image_chois(src, units, h), chois))

    dil = kraus_dilation(src, chois)
    assert dil.multiplicities == (2, 1)
    assert dil.dim == gram_rank(src, units, h) == 6
    rho = Representation.from_multiplicities(src, dil.multiplicities)
    w = dil.isometry
    for i, b in enumerate(src.basis()):
        # only the dropped Choi eigenvalue 1e-11 is missing from phi
        assert spectral_norm(w.conj().T @ rho(b) @ w - units[i]) <= 1.01e-11


def test_kernel_rejects_non_cp_and_non_hermitian():
    pi = Representation.from_multiplicities(M2, [1])
    with pytest.raises(NotCP, match="below"):
        kraus_dilation(M2, choi_blocks(compose_rep(pi, transpose_map())))
    with pytest.raises(NotCP, match="hermitian"):
        kraus_dilation(M2, [np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])
    # a large block must not dilute the hermiticity residual of a small one
    with pytest.raises(NotCP, match="hermitian"):
        kraus_dilation(FiniteDimCStarAlgebra((1, 1)),
                       [np.array([[1e9]], dtype=complex), np.array([[1 + 1e-3j]])])


def test_extension_step_rejects_non_cp_transfer():
    # transfer checks are skipped here on purpose: the step's own gate fires
    system = FiniteDimSystem(M2, StarHom.identity(M2))
    pi = Representation.from_multiplicities(M2, [1])
    with pytest.raises(NotCP):
        extend_representation(system, pi, AdaptedStrategy(transpose_map()), None)
