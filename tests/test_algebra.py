import numpy as np
import pytest

from covdilate.algebra import (FiniteDimCStarAlgebra, Representation, StarHom,
                               State, cyclic_decomposition, gns,
                               range_subalgebra_basis, verify_endomorphism,
                               verify_star_hom, verify_state)
from covdilate.covariant import haar_unitary
from covdilate.errors import NotInjective, NotState
from covdilate.numerics import spectral_norm

from conftest import random_element

M2 = FiniteDimCStarAlgebra((2,))
C2 = FiniteDimCStarAlgebra((1, 1))


def gram_oracle(omega):
    """G[i, j] = omega(b_i* b_j) over the matrix-unit basis, elementwise."""
    basis = omega.algebra.basis()
    return np.array([[omega(bi.adjoint() * bj) for bj in basis] for bi in basis])


def test_algebra_basics():
    alg = FiniteDimCStarAlgebra((2, 1))
    assert alg.dim == 5
    unit = alg.unit()
    assert np.allclose(unit.full_matrix(), np.eye(3))
    basis = alg.basis()
    assert len(basis) == 5
    # coordinates are plain entries in matrix-unit order
    x = alg.element([np.array([[1, 2], [3, 4]]), np.array([[5]])])
    assert np.allclose(x.coords, [1, 2, 3, 4, 5])
    assert np.allclose(alg.from_coords(x.coords).full_matrix(), x.full_matrix())


def test_element_operations():
    rng = np.random.default_rng(0)
    a = random_element(M2, rng)
    b = random_element(M2, rng)
    assert np.allclose((a * b).blocks[0], a.blocks[0] @ b.blocks[0])
    assert np.allclose(a.adjoint().blocks[0], a.blocks[0].conj().T)
    assert np.allclose((2.0 * a).blocks[0], 2.0 * a.blocks[0])


def test_verify_star_hom_identity():
    rep = verify_star_hom(StarHom.identity(M2))
    assert rep.mult_residual == 0.0
    assert rep.star_residual == 0.0
    assert rep.unit_residual == 0.0


def test_verify_star_hom_inner():
    # oracle: direct multiplication of the conjugation images
    rng = np.random.default_rng(1)
    u = M2.element([haar_unitary(2, rng)])
    h = StarHom.inner_automorphism(u)
    for a in M2.basis():
        expected = u.blocks[0] @ a.blocks[0] @ u.blocks[0].conj().T
        assert spectral_norm(h(a).blocks[0] - expected) < 1e-12
    rep = verify_star_hom(h)
    assert rep.passed and rep.mult_residual <= 1e-12


def test_transpose_is_antihomomorphism():
    tmat = np.zeros((4, 4), dtype=complex)
    for p in range(2):
        for q in range(2):
            tmat[p * 2 + q, q * 2 + p] = 1.0
    transpose = StarHom(M2, M2, tmat)
    rep = verify_star_hom(transpose)
    # E12 E21 = E11 but the transposes compose the other way around
    assert rep.mult_residual > 0.1
    assert not rep.passed


def test_verify_endomorphism_identity_and_permutation():
    rep = verify_endomorphism(StarHom.identity(C2))
    assert rep.passed and rep.injective and rep.automorphism
    perm = verify_endomorphism(StarHom.block_permutation(C2, [1, 0]))
    assert perm.passed and perm.automorphism


def test_verify_endomorphism_non_injective():
    # (a, b) -> (a, a): coordinate map [[1,0],[1,0]] has rank 1
    m = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    rep = verify_endomorphism(StarHom(C2, C2, m))
    assert rep.hom.passed  # it is a unital *-homomorphism
    assert not rep.injective and not rep.automorphism
    assert rep.coordinate_rank == 1
    assert "tower" in rep.note


def test_states_and_gram():
    omega = State.normalized_trace(M2)
    assert abs(omega(M2.unit()) - 1.0) < 1e-14
    # verify_state reads the Choi blocks; the oracle Gram form is n_b copies
    # of them, so both have the same smallest eigenvalue
    indefinite = State.from_densities(FiniteDimCStarAlgebra((2, 1)),
                                      [np.array([[1.5, 0.5j], [-0.5j, -0.25]]),
                                       np.array([[-0.25]])])
    for state in (omega, indefinite):
        g = gram_oracle(state)
        unit_res, low = verify_state(state)
        assert unit_res < 1e-14
        assert abs(low - np.linalg.eigvalsh(g)[0]) < 1e-14
    assert verify_state(indefinite)[1] < -0.25


@pytest.mark.parametrize("state_builder,expected_dim", [
    (lambda: State.from_densities(C2, [np.array([[1.0]]), np.array([[0.0]])]), 1),
    (lambda: State.from_densities(M2, [np.array([[1.0, 0], [0, 0.0]])]), 2),
    (lambda: State.normalized_trace(M2), 4),
])
def test_gns_dimensions(state_builder, expected_dim):
    omega = state_builder()
    # oracle: the GNS dimension is the rank of the Gram form
    g = gram_oracle(omega)
    gram_rank = int(np.sum(np.linalg.eigvalsh((g + g.conj().T) / 2) > 1e-10))
    assert gram_rank == expected_dim
    data = gns(omega.algebra, omega)
    assert data.embed_dim == expected_dim
    assert data.vector_residual <= 1e-12
    assert data.cyclic_span_rank == expected_dim


def test_gns_inner_product_identity():
    omega = State.normalized_trace(M2)
    data = gns(M2, omega)
    basis = M2.basis()
    # omega(b* a) = <[a], [b]> on the GNS space
    g = gram_oracle(omega)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert abs(g[j, i] - omega(b.adjoint() * a)) < 1e-14
            # GNS coordinates of the classes
            ca = data.rep(a) @ data.cyclic
            cb = data.rep(b) @ data.cyclic
            assert abs(np.vdot(cb, ca) - g[j, i]) < 1e-8


def test_gns_rejects_non_state():
    bad = State(M2, 2.0 * State.normalized_trace(M2).vector)
    with pytest.raises(NotState):
        gns(M2, bad)


def test_cyclic_decomposition_irreducible():
    pi = Representation.from_multiplicities(M2, [1])
    assert len(cyclic_decomposition(pi)) == 1


def test_cyclic_decomposition_double():
    pi = Representation.from_multiplicities(M2, [2])
    summands = cyclic_decomposition(pi)
    assert len(summands) == 2
    assert sorted(s.shape[1] for s in summands) == [2, 2]


def test_cyclic_decomposition_multiplicities_and_commutant():
    algebra = FiniteDimCStarAlgebra((2, 1))
    pi = Representation.from_multiplicities(algebra, [2, 1])
    summands = cyclic_decomposition(pi)
    assert sum(s.shape[1] for s in summands) == pi.space_dim
    assert len(summands) == 3  # one per multiplicity slot in the canonical layout
    # oracle: brute-force commutant dimension equals sum of squared multiplicities
    h = pi.space_dim
    rows = []
    for a in algebra.basis():
        m = pi(a)
        rows.append(np.kron(m.T, np.eye(h)) - np.kron(np.eye(h), m))
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    commutant_dim = int(np.sum(s <= 1e-10 * s[0])) + h * h - len(s)
    assert commutant_dim == 2 ** 2 + 1 ** 2


def test_cyclic_summands_are_invariant_and_orthogonal():
    rng = np.random.default_rng(4)
    algebra = FiniteDimCStarAlgebra((2, 1))
    pi = Representation.from_multiplicities(algebra, [1, 2], haar_unitary(4, rng))
    summands = cyclic_decomposition(pi)
    for i, s in enumerate(summands):
        for a in algebra.basis():
            off = pi(a) @ s - s @ (s.conj().T @ pi(a) @ s)
            assert spectral_norm(off) < 1e-10
        for t in summands[i + 1:]:
            assert spectral_norm(s.conj().T @ t) < 1e-12


def test_range_subalgebra_basis():
    full = range_subalgebra_basis(StarHom.identity(M2))
    assert full.shape == (4, 4)
    m = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    small = range_subalgebra_basis(StarHom(C2, C2, m))
    assert small.shape[1] == 1


def test_representation_from_images_roundtrip():
    rng = np.random.default_rng(9)
    u = haar_unitary(2, rng)
    pi = Representation.from_images(M2, [u @ b.blocks[0] @ u.conj().T for b in M2.basis()])
    assert pi.verify().passed


def test_singular_coordinate_map_is_not_injective():
    # a -> tr(a) I / 2 on M2: a unital map of coordinate rank 1
    unit = M2.unit().coords
    trace = StarHom(M2, M2, np.outer(unit, unit) / 2.0)
    with pytest.raises(NotInjective, match="singular"):
        trace.inverse()
    report = verify_endomorphism(trace)
    assert not report.injective and report.coordinate_rank == 1
    assert StarHom.identity(M2).inverse().matrix.shape == (4, 4)
