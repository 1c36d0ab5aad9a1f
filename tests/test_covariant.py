import numpy as np
import pytest

from covdilate.algebra import FiniteDimCStarAlgebra, Representation, StarHom
from covdilate.covariant import (AdaptedStrategy, CovariantPair, FiniteDimSystem,
                                 GnsStrategy, covariant_pair, defect_operators,
                                 haar_unitary, hb_extend, verify_covariance)
from covdilate.cpmaps import CPMap
from covdilate.errors import NotContraction, StrategyInvalid
from covdilate.extension import coisometric_extend, verify_coisometric_extension
from covdilate.numerics import spectral_norm
from covdilate.tower import ShiftTower, TowerTransfer, shift_down_pair, state_density

from conftest import random_covariant_contraction

SCALARS = FiniteDimCStarAlgebra((1,))


def scalar_pair(t=0.6):
    pi = Representation.from_multiplicities(SCALARS, [1])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    return CovariantPair(system, pi, np.array([[t]], dtype=complex))


def test_scalar_covariance_is_exact():
    # scalars commute, so any contraction is covariant
    assert verify_covariance(scalar_pair(0.37)) == 0.0


def test_tower_fixture_covariance():
    tower = ShiftTower(2, 4)
    pair = shift_down_pair(tower, 3, 1, 0.9, [1, 0], [0, 1])
    assert verify_covariance(pair) <= 1e-12


def test_non_intertwiner_has_visible_residual():
    rng = np.random.default_rng(6)
    algebra = FiniteDimCStarAlgebra((2,))
    pi = Representation.from_multiplicities(algebra, [2], haar_unitary(4, rng))
    system = FiniteDimSystem(algebra, StarHom.identity(algebra))
    # a seeded random contraction almost surely fails to intertwine
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t = 0.9 * z / spectral_norm(z)
    pair = CovariantPair(system, pi, t)
    assert verify_covariance(pair) > 0.05


def test_covariant_pair_rejects_expansion():
    pi = Representation.from_multiplicities(SCALARS, [1])
    system = FiniteDimSystem(SCALARS, StarHom.identity(SCALARS))
    with pytest.raises(NotContraction):
        covariant_pair(system, pi, np.array([[1.5]]))


def test_defect_operators_scalar():
    d = defect_operators(scalar_pair(0.6))
    assert abs(d.delta[0, 0] - 0.8) < 1e-14
    assert abs(d.delta_star[0, 0] - 0.8) < 1e-14


def test_defect_operators_unitary():
    rng = np.random.default_rng(7)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    t = pi(u).conj().T
    pair = CovariantPair(system, pi, t)
    assert verify_covariance(pair) <= 1e-12
    d = defect_operators(pair)
    assert spectral_norm(d.delta) == 0.0
    assert spectral_norm(d.delta_star) == 0.0


def test_defect_commutation_tower():
    tower = ShiftTower(2, 4)
    pair = shift_down_pair(tower, 3, 1, 0.9, [1, 0], [1, 0])
    d = defect_operators(pair)
    assert d.pi_commutation <= 1e-9
    assert d.pi_alpha_commutation <= 1e-9


def test_tt_star_commutes_with_representation(corpus):
    # consequence of covariance used for the defect commutation
    for case in corpus[:10]:
        pair = case.pair
        t = pair.contraction
        tts = t @ t.conj().T
        d = None if not pair.system.is_tower else pair.depth
        worst = max(spectral_norm(tts @ pair.rep(a) - pair.rep(a) @ tts)
                    for a in pair.system.basis(d))
        assert worst <= 1e-8


def test_hb_extend_identity_dynamics():
    pair = scalar_pair(0.6)
    ext = hb_extend(pair, AdaptedStrategy(CPMap.identity(SCALARS)))
    assert ext.dilation_dim == 1
    assert ext.report.passed
    # W is a unitary scalar here
    assert abs(abs(ext.isometry[0, 0]) - 1.0) < 1e-12


def test_hb_extend_reports_all_identities():
    rng = np.random.default_rng(8)
    algebra = FiniteDimCStarAlgebra((2,))
    alpha = StarHom.inner_automorphism(algebra.element([haar_unitary(2, rng)]))
    pi = Representation.from_multiplicities(algebra, [2], haar_unitary(4, rng))
    system = FiniteDimSystem(algebra, alpha)
    t = random_covariant_contraction(system, pi, rng, 0.8)
    pair = CovariantPair(system, pi, t)
    ext = hb_extend(pair, AdaptedStrategy(CPMap.from_hom(alpha.inverse())))
    assert ext.report.extension_residual <= 1e-9
    assert ext.report.isometry_residual <= 1e-10
    assert ext.report.commutant_residual <= 1e-8
    assert ext.report.minimality_rank == ext.dilation_dim


def test_hb_extend_tower_dim_matches_gram_rank():
    from covdilate.cpmaps import stinespring_gram
    tower = ShiftTower(2, 4)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [1, 0])
    tau = TowerTransfer(tower, state_density(tower, "trace"))
    ext = hb_extend(pair, AdaptedStrategy(tau))
    # oracle: rank of the pi o tau Gram form over the working-depth units
    system = pair.system
    units = [pair.rep(tau(b)) for b in system.basis(2)]
    g = stinespring_gram(system.algebra_view(2), units, pair.space_dim)
    rank = int(np.sum(np.linalg.eigvalsh((g + g.conj().T) / 2)
                      > 1e-10 * np.linalg.eigvalsh((g + g.conj().T) / 2)[-1]))
    assert ext.dilation_dim == rank


def test_hb_extend_rejects_bad_strategy():
    pair = scalar_pair(0.5)
    bad = CPMap(SCALARS, SCALARS, 0.5 * np.eye(1, dtype=complex))
    with pytest.raises(StrategyInvalid):
        hb_extend(pair, AdaptedStrategy(bad))
    with pytest.raises(StrategyInvalid):
        hb_extend(pair, "not a strategy")
    tower = ShiftTower(2, 2)
    with pytest.raises(StrategyInvalid, match="expects the transfer as a CPMap"):
        hb_extend(pair, AdaptedStrategy(TowerTransfer(tower, state_density(tower, "trace"))))


def test_gns_strategy_matches_adapted_scalar():
    pair = scalar_pair(0.6)
    ext_a = hb_extend(pair, AdaptedStrategy(CPMap.identity(SCALARS)))
    ext_g = hb_extend(pair, GnsStrategy(CPMap.identity(SCALARS)))
    assert ext_a.dilation_dim == ext_g.dilation_dim == 1
    assert ext_g.report.passed


def one_level_block(pair, strategy):
    """The two-step block M = [[T, D*], [0, 0]] as a one-level chain's V,
    with the chain's clause report."""
    chain = coisometric_extend(pair, 1, strategy)
    return chain, verify_coisometric_extension(chain)


def test_two_step_unitary_contraction_degenerates():
    rng = np.random.default_rng(9)
    algebra = FiniteDimCStarAlgebra((2,))
    u = algebra.element([haar_unitary(2, rng)])
    alpha = StarHom.inner_automorphism(u)
    pi = Representation.from_multiplicities(algebra, [1])
    system = FiniteDimSystem(algebra, alpha)
    pair = CovariantPair(system, pi, pi(u).conj().T)
    chain, report = one_level_block(pair, AdaptedStrategy(CPMap.from_hom(alpha.inverse())))
    assert chain.levels[0].defect_basis.shape[1] == 0
    assert chain.v.shape == (2, 2)
    assert spectral_norm(chain.v - pair.contraction) <= 1e-12
    assert report.passed


def test_two_step_scalar_block():
    pair = scalar_pair(0.6)
    chain, report = one_level_block(pair, AdaptedStrategy(CPMap.identity(SCALARS)))
    assert np.allclose(chain.v, [[0.6, 0.8], [0.0, 0.0]])
    # 0.36 + 0.64 = 1: the first row has unit norm
    assert abs(np.linalg.norm(chain.v.dense()[0]) - 1.0) < 1e-12
    assert report.passed


def test_two_step_partial_isometry_tower():
    tower = ShiftTower(2, 4)
    pair = shift_down_pair(tower, 2, 1, 0.9, [1, 0], [0, 1])
    tau = TowerTransfer(tower, state_density(tower, "trace"))
    chain, report = one_level_block(pair, AdaptedStrategy(tau))
    m = chain.v.dense()
    h = pair.space_dim
    target = np.zeros_like(m)
    target[:h, :h] = np.eye(h)
    assert spectral_norm(m @ m.conj().T - target) <= 1e-8
    assert spectral_norm(m @ m.conj().T @ m - m) <= 1e-8
    assert report.passed
