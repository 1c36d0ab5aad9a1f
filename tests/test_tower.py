import numpy as np
import pytest

from covdilate.algebra import range_subalgebra_basis, verify_star_hom
from covdilate.covariant import stage_view
from covdilate.cpmaps import verify_completely_positive, verify_transfer
from covdilate.errors import DepthExceeded, DepthZero, SizeCap
from covdilate.numerics import spectral_norm
from covdilate.tower import (ShiftTower, TowerExpectation, TowerTransfer,
                             alpha_hom, embed, shift_alpha,
                             shift_down_pair, standard_rep, state_density,
                             transfer_phi)

from dense_oracle import stage_cpmap

TOWER = ShiftTower(2, 5)


def rand_elem(depth, seed):
    rng = np.random.default_rng(seed)
    n = TOWER.stage_dim(depth)
    return TOWER.element(depth, rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))


def test_size_cap_enforced():
    with pytest.raises(SizeCap):
        ShiftTower(2, 9, size_cap=256)
    with pytest.raises(SizeCap):
        standard_rep(TOWER, 5, multiplicity=9)


def test_embed_unit_and_transitivity():
    one = TOWER.unit(1)
    assert np.allclose(embed(one, 3).mat, np.eye(8))
    x = rand_elem(1, 0)
    assert np.allclose(embed(embed(x, 2), 4).mat, embed(x, 4).mat)
    with pytest.raises(DepthExceeded):
        embed(x, 0)


def test_embed_preserves_spectrum():
    x = rand_elem(1, 1)
    inner = np.sort_complex(np.linalg.eigvals(x.mat))
    outer = np.sort_complex(np.linalg.eigvals(embed(x, 3).mat))
    # oracle: eigenvalues of x tensor 1 are those of x, each repeated
    assert np.allclose(np.repeat(inner, 4), outer)


def test_shift_alpha_basic():
    assert np.allclose(shift_alpha(TOWER.unit(2)).mat, np.eye(8))
    x = rand_elem(1, 2)
    assert np.allclose(shift_alpha(embed(x, 2)).mat, embed(shift_alpha(x), 3).mat)
    with pytest.raises(DepthExceeded):
        shift_alpha(rand_elem(5, 3))


def test_shift_alpha_view_is_star_hom_not_surjective():
    hom = alpha_hom(TOWER, 1)
    assert verify_star_hom(hom).passed
    # range rank at depth 2 is k^2 = 4 of 16
    assert range_subalgebra_basis(hom).shape[1] == 4


def test_transfer_left_inverse_and_values():
    x = rand_elem(2, 4)
    assert np.allclose(transfer_phi(TOWER, "trace", shift_alpha(x)).mat, x.mat)
    # phi = tr/k on E11 tensor x gives x / k
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    x1 = rand_elem(1, 44)
    y = TOWER.element(2, np.kron(e11, x1.mat))
    assert np.allclose(transfer_phi(TOWER, "trace", y).mat, x1.mat / 2)
    with pytest.raises(DepthZero):
        transfer_phi(TOWER, "trace", TOWER.element(0, np.eye(1)))


def test_distinct_states_give_distinct_transfers():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    y = TOWER.element(2, np.kron(e11, np.eye(2)))
    t1 = transfer_phi(TOWER, "trace", y)
    t2 = transfer_phi(TOWER, [1, 0], y)
    assert spectral_norm(t1.mat - t2.mat) > 0.4


def test_transfer_views_pass_cp_and_transfer_checks():
    for phi in ("trace", [1, 0], [0.6, 0.8]):
        tau = TowerTransfer(TOWER, state_density(TOWER, phi))
        for depth in (1, 2, 3):
            rep = verify_transfer(stage_cpmap(tau, depth), alpha_hom(TOWER, depth - 1))
            assert rep.passed
            assert rep.left_inverse_residual <= 1e-12


def test_expectation_is_idempotent_cp():
    e = TowerExpectation(TOWER, state_density(TOWER, "trace"))
    view = stage_cpmap(e, 2)
    cp = verify_completely_positive(view)
    assert cp.passed
    worst = max(spectral_norm(view(view(a)).full_matrix() - view(a).full_matrix())
                for a in view.source.basis())
    assert worst <= 1e-12


def test_standard_rep_compatibility_and_commutant():
    rep = standard_rep(TOWER, 2, multiplicity=2)
    assert rep.dim == 8
    x = rand_elem(1, 5)
    assert np.allclose(rep(x), rep(embed(x, 2)))
    assert verify_star_hom(stage_view(rep.system, rep, 2).hom).passed
    # oracle: brute-force commutant of pi(A_2) has dimension m^2
    h = rep.dim
    rows = []
    for b in TOWER.basis(2):
        m = rep(b)
        rows.append(np.kron(m.T, np.eye(h)) - np.kron(np.eye(h), m))
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    commutant_dim = int(np.sum(s <= 1e-10 * s[0])) + h * h - len(s)
    assert commutant_dim == 4


def test_shift_down_pair_properties():
    pair = shift_down_pair(TOWER, 3, 1, 1.0, [1, 0], [0, 1])
    # c = 1: R is a partial isometry with R R* = I tensor |v><v|
    r = pair.contraction
    v = np.array([0.0, 1.0])
    expected = np.kron(np.eye(4), np.outer(v, v.conj()))
    assert spectral_norm(r @ r.conj().T - expected) <= 1e-12
    from covdilate.covariant import verify_covariance
    assert verify_covariance(pair) <= 1e-12
    zero = shift_down_pair(TOWER, 3, 1, 0.0, [1, 0], [0, 1])
    assert spectral_norm(zero.contraction) == 0.0
    assert verify_covariance(zero) == 0.0


def test_transfer_inverts_shift_for_all_states():
    rng = np.random.default_rng(10)
    for seed in range(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho).real
        tau = TowerTransfer(TOWER, rho)
        for depth in (1, 2, 3, 4):
            x = rand_elem(depth - 1, 20 + seed)
            assert spectral_norm(tau(shift_alpha(x)).mat - x.mat) <= 1e-12


def test_nonuniqueness_witness_on_representation():
    # distinct states differ visibly after composing with the representation
    rep = standard_rep(TOWER, 2)
    t1 = TowerTransfer(TOWER, state_density(TOWER, "trace"))
    t2 = TowerTransfer(TOWER, state_density(TOWER, [1, 0]))
    # E11 tensor 1 separates the trace state from the vector state
    y = TOWER.element(2, np.kron(np.array([[1.0, 0], [0, 0.0]]), np.eye(2)))
    diff = spectral_norm(rep(t1(y)) - rep(t2(y)))
    assert diff > 0.4

