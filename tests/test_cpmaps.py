import numpy as np
import pytest

from covdilate.algebra import (FiniteDimCStarAlgebra, Representation, StarHom,
                               State)
from covdilate.covariant import haar_unitary
from covdilate.cpmaps import (CPMap, choi_blocks, compose_rep,
                              expectation_from_transfer, stinespring_minimal,
                              transfer_from_expectation,
                              verify_completely_positive, verify_transfer)
from covdilate.errors import (NotInjective, NotUnital, RangeNotInImage,
                              TransferInvalid)
from covdilate.numerics import spectral_norm

M2 = FiniteDimCStarAlgebra((2,))


def transpose_map(alg=M2):
    n = alg.block_sizes[0]
    m = np.zeros((n * n, n * n), dtype=complex)
    for p in range(n):
        for q in range(n):
            m[p * n + q, q * n + p] = 1.0
    return CPMap(alg, alg, m)


def test_identity_choi_spectrum():
    choi = choi_blocks(CPMap.identity(M2))[0]
    # the Choi matrix of the identity on M2 has eigenvalues {2, 0, 0, 0}
    assert np.allclose(sorted(np.linalg.eigvalsh(choi)), [0, 0, 0, 2], atol=1e-12)
    rep = verify_completely_positive(CPMap.identity(M2))
    assert rep.passed and abs(rep.min_eig) < 1e-12


def test_transpose_fails_cp():
    rep = verify_completely_positive(transpose_map())
    # oracle: the partial transpose of the maximally entangled state has
    # eigenvalue -1
    assert abs(rep.min_eig + 1.0) < 1e-12
    assert not rep.passed


def test_depolarizing_is_cp():
    # a -> tr(a)/2 * 1
    m = np.zeros((4, 4), dtype=complex)
    for p in range(2):
        for d in range(2):
            m[d * 2 + d, p * 2 + p] = 0.5
    rep = verify_completely_positive(CPMap(M2, M2, m))
    assert rep.passed


def test_verify_transfer_automorphism_inverse():
    rng = np.random.default_rng(2)
    alpha = StarHom.inner_automorphism(M2.element([haar_unitary(2, rng)]))
    tau = CPMap.from_hom(alpha.inverse())
    rep = verify_transfer(tau, alpha)
    assert rep.passed
    assert rep.left_inverse_residual <= 1e-12
    assert rep.unit_residual <= 1e-12


def test_verify_transfer_scaled_fails_unitality():
    alpha = StarHom.identity(M2)
    tau = CPMap(M2, M2, 0.5 * np.eye(4, dtype=complex))
    rep = verify_transfer(tau, alpha)
    assert abs(rep.unit_residual - 0.5 / (1.0 + 1.0)) < 1e-12
    assert not rep.passed


def test_expectation_from_transfer_identity():
    e = expectation_from_transfer(StarHom.identity(M2), CPMap.identity(M2))
    assert np.allclose(e.matrix, np.eye(4))


def test_expectation_idempotent_random_automorphism():
    rng = np.random.default_rng(3)
    alg = FiniteDimCStarAlgebra((2, 1))
    u = alg.element([haar_unitary(2, rng), haar_unitary(1, rng)])
    alpha = StarHom.inner_automorphism(u)
    tau = CPMap.from_hom(alpha.inverse())
    e = expectation_from_transfer(alpha, tau)
    worst = max(spectral_norm(e(e(a)).full_matrix() - e(a).full_matrix())
                for a in alg.basis())
    assert worst <= 1e-9


def test_transfer_expectation_roundtrip():
    rng = np.random.default_rng(4)
    alpha = StarHom.inner_automorphism(M2.element([haar_unitary(2, rng)]))
    tau = CPMap.from_hom(alpha.inverse())
    e = expectation_from_transfer(alpha, tau)
    tau2 = transfer_from_expectation(alpha, e)
    assert spectral_norm(tau.matrix - tau2.matrix) <= 1e-10


def test_transfer_from_expectation_rejects_off_range():
    # on C + C with alpha = identity the range is everything, so break the
    # solve by making alpha non-surjective is impossible here; instead check
    # the idempotency gate
    alg = FiniteDimCStarAlgebra((1, 1))
    bad = CPMap(alg, alg, np.array([[1.0, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises((TransferInvalid, RangeNotInImage)):
        transfer_from_expectation(StarHom.identity(alg), bad)


def test_stinespring_identity_channel():
    pi = Representation.from_multiplicities(M2, [1])
    phi = compose_rep(pi, CPMap.identity(M2))
    data = stinespring_minimal(phi)
    assert data.dilation_dim == 2
    assert data.isometry_residual <= 1e-12
    assert data.dilation_residual <= 1e-12
    assert data.minimal
    # W is square and isometric, hence unitary
    w = data.isometry
    assert spectral_norm(w @ w.conj().T - np.eye(2)) <= 1e-12


def test_stinespring_of_state_matches_gns():
    # phi = omega(.) on B(C) has the same Choi blocks as the GNS construction
    from covdilate.algebra import gns
    omega = State.normalized_trace(M2)
    target = FiniteDimCStarAlgebra((1,))
    phi = CPMap(M2, target, omega.vector.reshape(1, 4))
    data = stinespring_minimal(phi)
    g = gns(M2, omega)
    assert data.dilation_dim == g.embed_dim == 4
    # intertwiner oracle: both are minimal dilations of the same state, so
    # mapping rho(a) W 1 to rho'(a) xi intertwines them
    basis = M2.basis()
    x1 = np.column_stack([data.rep(a) @ data.isometry[:, 0] for a in basis])
    x2 = np.column_stack([g.rep(a) @ g.cyclic for a in basis])
    u = x2 @ np.linalg.pinv(x1)
    assert spectral_norm(u @ u.conj().T - np.eye(4)) <= 1e-10
    for a in basis:
        assert spectral_norm(u @ data.rep(a) - g.rep(a) @ u) <= 1e-10


def test_stinespring_requires_unital():
    target = FiniteDimCStarAlgebra((1,))
    phi = CPMap(M2, target, 0.5 * State.normalized_trace(M2).vector.reshape(1, 4))
    with pytest.raises(NotUnital):
        stinespring_minimal(phi)


def test_stinespring_tower_view_compression():
    # pi o tau on a depth-fixed tower view: the compression along the shift
    # recovers pi, and the range projection commutes with the shifted image
    from covdilate.covariant import stage_view
    from covdilate.tower import (ShiftTower, TowerTransfer, standard_rep,
                                 state_density)
    tower = ShiftTower(2, 3)
    rep = standard_rep(tower, 2)
    tau = TowerTransfer(tower, state_density(tower, "trace"))
    pi_view = stage_view(rep.system, rep, 1)
    phi = compose_rep(pi_view, tau.as_cpmap(2))
    data = stinespring_minimal(phi)
    assert data.minimal and data.isometry_residual <= 1e-12
    w = data.isometry
    ww = w @ w.conj().T
    stage2 = phi.source
    worst = 0.0
    comm = 0.0
    for b in tower.stage(1).basis():
        shifted = stage2.element([np.kron(np.eye(2, dtype=complex), b.blocks[0])])
        img = data.rep(shifted)
        target = rep(tower.element(1, b.blocks[0]))
        worst = max(worst, spectral_norm(w.conj().T @ img @ w - target))
        comm = max(comm, spectral_norm(ww @ img - img @ ww))
    assert worst <= 1e-9
    assert comm <= 1e-8


def test_transfer_from_expectation_rejects_a_singular_alpha():
    unit = M2.unit().coords
    alpha = StarHom(M2, M2, np.outer(unit, unit) / 2.0)
    with pytest.raises(NotInjective, match="singular"):
        transfer_from_expectation(alpha, CPMap.identity(M2))
