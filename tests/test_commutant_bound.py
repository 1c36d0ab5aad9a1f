"""The invariance clauses decided by a commutant bound, and the defect and
restriction clauses read from structure, against their exact sweeps.

``defect/invariant`` and the extension step's invariance gate are valued by
``covariant.invariance_values``, the one place an invariance clause is
valued: the value 2 ||P - E(P)||_F (``numerics.commutant_bound`` of a
factor form, a step rep's own form directsum_b 1 (x) M_(n_b) (x) 1_(r_b)
on either backend) when it is at or below the threshold, and the exact
sweep otherwise; the proof is in the ``extension`` module docstring.  Here
every bound is at least its exact value, the projector form ||(I - B B*) x
B|| swept over the basis, on the tower corpus, on drifted spans, on random
subspaces of small towers and of finite multi-block Kraus layouts, a
failing value is bit-equal to the exact run,
``chain/representation-restricts`` still sweeps a chain whose first part is
not pi, and a passing ``extend`` sweeps nothing in
``defect_decomposition``.
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covdilate.cli as cli_mod
import covdilate.covariant as covariant_mod
import covdilate.extension as extension_mod
import covdilate.numerics as numerics_mod
from covdilate.algebra import FiniteDimCStarAlgebra, StarHom
from covdilate.cli import run
from covdilate.covariant import (DirectSumRep, FiniteDimSystem, ShiftedRep, factor_form,
                                 haar_unitary, invariance_residual, invariance_values,
                                 usable_depth)
from covdilate.cpmaps import KrausDilation, KrausRep
from covdilate.extension import (coisometric_extend, defect_decomposition,
                                 verify_coisometric_extension)
from covdilate.numerics import (DEFAULT_TOL, BlockOperator, Leaf, UpperBound, block_slices,
                                commutant_bound, residual)
from covdilate.scenario import build_scenario
from covdilate.tower import ShiftTower, TowerSystem, standard_rep

from conftest import make_tower_case
from dense_oracle import RotatedRep

EPS = np.finfo(float).eps
TOL = DEFAULT_TOL.residual_tol
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# the tower-deep workload's shape: k = 2, d_max = 6, rep_depth = 3, levels = 2
TOWER_DEEP = {
    "schema": 1, "backend": "tower", "k": 2, "d_max": 6, "rep_depth": 3,
    "multiplicity": 1,
    "pair": {"scale": 0.7, "u": [[0.6, 0.0], [0.0, 0.8]], "v": [[0.28, 0.96], [0.0, 0.0]]},
    "strategy": {"kind": "adapted", "phi": "trace"},
    "levels": 2, "copies": 2, "seed": 4,
}


def _exact(monkeypatch, fn):
    """fn() with every clause value exact: the threshold ignored and the
    commutant bound turned off."""
    real = numerics_mod._clause_max
    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", lambda term, threshold=None: real(term))
        m.setattr(covariant_mod, "commutant_bound", lambda *args: math.inf)
        return fn()


def _clause(report, name):
    return next(c for c in report.clauses if c.name == name)


def _drifted(basis, rng, drift):
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    q, _ = np.linalg.qr(basis + drift * noise)
    return q


def _layout_form(layout):
    """The factor form of the algebra directsum_b 1_(m_b) (x) M_(n_b) (x)
    1_(r_b), block b its own summand."""
    spans = block_slices([m * n * r for m, n, r in layout])
    return tuple(Leaf(m, n, r, s, block=b) for b, ((m, n, r), s) in enumerate(zip(layout, spans)))


def _invariant_span(layout, rng, fraction=0.5):
    """Orthonormal columns of a subspace invariant under the algebra
    directsum_b 1_(m_b) (x) M_(n_b) (x) 1_(r_b): per block, Q (x) C^(n_b)
    with Q orthonormal in C^(m_b r_b), embedded in the block's coordinates."""
    dim = sum(m * n * r for m, n, r in layout)
    cols, start = [], 0
    for m, n, r in layout:
        q = haar_unitary(m * r, rng)[:, :max(1, int(fraction * m * r))].reshape(m, r, -1)
        block = np.einsum("acj,lL->alcjL", q, np.eye(n)).reshape(m * n * r, -1)
        col = np.zeros((dim, block.shape[1]), dtype=complex)
        col[start:start + m * n * r] = block
        cols.append(col)
        start += m * n * r
    return np.hstack(cols)


def _tower_chains(corpus):
    cases = [c for c in corpus if c.backend == "tower"]
    cases.append(make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2))
    for case in cases:
        for seed in (None, 17):
            yield case, coisometric_extend(case.pair, case.levels, case.strategy,
                                           DEFAULT_TOL, seed)


# ---------------------------------------------------------------------------
# the bound against the exact sweep
# ---------------------------------------------------------------------------

def test_bounds_cover_the_exact_values_on_the_tower_corpus(corpus, monkeypatch):
    for case, chain in _tower_chains(corpus):
        got = _clause(defect_decomposition(chain).report, "defect/invariant")
        want = _clause(_exact(monkeypatch, lambda: defect_decomposition(chain)).report,
                       "defect/invariant")
        assert got.bound and got.passed and want.passed and not want.bound, case.name
        assert got.residual >= want.residual, (case.name, got.residual, want.residual)
        # the extension step's gate on every level
        for k, level in enumerate(chain.levels):
            rho = level.ext.rho
            exact = invariance_residual(case.pair.system, rho.max_depth, rho,
                                        level.defect_basis)
            # a defect space that fills its dilation space is invariant outright
            assert isinstance(level.invariance, UpperBound) \
                or level.dim == rho.dim and level.invariance == 0.0, (case.name, k)
            assert level.invariance >= exact, (case.name, k, level.invariance, exact)


@pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
def test_drifted_defect_spans_get_the_exact_failing_value(drift, monkeypatch):
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    system = case.pair.system
    d = usable_depth(system, [chain.rho], 1, case.pair.depth)
    rng = np.random.default_rng(3)
    bases = [_drifted(b, rng, drift) for b in defect_decomposition(chain).summand_bases]
    for part, basis in zip(chain.rho.parts, bases):
        exact = invariance_residual(system, d, ShiftedRep(part, system, 1), basis)
        assert commutant_bound(basis, factor_form(system, part, d, 1)) >= exact
    dv = (BlockOperator.diagonal(bases), chain.rho, 1)
    (got,) = invariance_values(system, d, TOL, dv)
    (want,) = _exact(monkeypatch, lambda: invariance_values(system, d, TOL, dv))
    assert got > TOL and not isinstance(got, UpperBound)
    assert got == want


@pytest.mark.parametrize("drift", [1e-9, 1e-6, 1e-3])
def test_drifted_step_spans_get_the_exact_failing_value(drift):
    """The gate's layout, the step rep's own commutant directsum_b I_(n_b) (x)
    M_(r_b), on a tower level and on a finite Kraus representation."""
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=1)
    tower_rho = coisometric_extend(case.pair, 1, case.strategy).levels[0].ext.rho
    alg = FiniteDimCStarAlgebra((2, 1, 3))
    finite = FiniteDimSystem(alg, StarHom.identity(alg))
    finite_rho = KrausRep(finite, None, KrausDilation((3, 2, 4), np.zeros((20, 1))))
    rng = np.random.default_rng(5)
    failing = 0
    for system, rho in ((case.pair.system, tower_rho), (finite, finite_rho)):
        layout = [(1, n, r) for n, r, _ in rho.layout]
        basis = _drifted(_invariant_span(layout, rng), rng, drift)
        exact = invariance_residual(system, rho.max_depth, rho, basis)
        got = invariance_residual(system, rho.max_depth, rho, basis, TOL)
        assert commutant_bound(basis, _layout_form(layout)) >= exact
        if exact > TOL:
            failing += 1
            assert got == exact and not isinstance(got, UpperBound)
        else:
            assert exact <= got <= TOL
    # at 1e-9 these spans still pass, by the bound or by the sweep
    assert failing == (0 if drift < 1e-6 else 2)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([2, 3]), top=st.integers(1, 2), mult=st.integers(1, 2),
       kraus=st.booleans(), drift=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]),
       seed=st.integers(0, 2**16))
def test_bound_covers_the_exact_value_on_random_tower_subspaces(k, top, mult, kraus,
                                                                drift, seed):
    tower = ShiftTower(k, top + 1)
    system = TowerSystem(tower)
    dim = k ** top * mult
    rep = KrausRep(system, top, KrausDilation((mult,), np.zeros((dim, 1)))) if kraus \
        else standard_rep(tower, top, mult)
    rng = np.random.default_rng(seed)
    for d in range(top):
        factors = system.shift_factors(rep, d)
        assert factors == (k, k ** d, dim // k ** (d + 1))
        basis = _drifted(_invariant_span([factors], rng, rng.uniform(0.2, 0.8)), rng, drift)
        if basis.shape[1] == dim:
            continue
        exact = invariance_residual(system, d, ShiftedRep(rep, system, 1), basis)
        # on an invariant span both values are round-off, of no fixed order
        assert commutant_bound(basis, factor_form(system, rep, d, 1)) >= exact - dim * EPS, \
            (d, exact)


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1,
                       max_size=3),
       drift=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]), seed=st.integers(0, 2**16))
def test_bound_covers_the_exact_value_on_random_finite_kraus_layouts(blocks, drift, seed):
    """The step gate's layout directsum_b I_(n_b) (x) M_(r_b) on a finite
    KrausRep of M_(n_1) + ... + M_(n_B), r_b copies of block b: the bound
    against the projector form swept over the matrix units."""
    sizes, mults = zip(*blocks)
    alg = FiniteDimCStarAlgebra(sizes)
    system = FiniteDimSystem(alg, StarHom.identity(alg))
    dim = sum(n * r for n, r in blocks)
    rho = KrausRep(system, None, KrausDilation(mults, np.zeros((dim, 1))))
    layout = [(1, n, r) for n, r, _ in rho.layout]
    rng = np.random.default_rng(seed)
    basis = _drifted(_invariant_span(layout, rng, rng.uniform(0.2, 0.8)), rng, drift)
    if basis.shape[1] == dim:
        return
    exact = invariance_residual(system, None, rho, basis)
    # on an invariant span both values are round-off, of no fixed order
    assert commutant_bound(basis, _layout_form(layout)) >= exact - dim * EPS, (blocks, exact)


def test_finite_parts_keep_the_exact_sweep(corpus):
    case = next(c for c in corpus if c.backend == "finite-dim")
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    assert all(case.pair.system.shift_factors(p, None) is None for p in chain.rho.parts)


# ---------------------------------------------------------------------------
# clauses read from structure
# ---------------------------------------------------------------------------

def test_restriction_sweeps_a_chain_whose_first_part_is_not_pi(corpus, monkeypatch):
    case = next(c for c in corpus if c.backend == "tower")
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    assert _clause(verify_coisometric_extension(chain),
                   "chain/representation-restricts").residual == 0.0
    pi = case.pair.rep
    other = RotatedRep(pi, haar_unitary(pi.dim, np.random.default_rng(9)))
    chain.rho = DirectSumRep((other,) + chain.rho.parts[1:])
    got = _clause(verify_coisometric_extension(chain), "chain/representation-restricts")
    want = _clause(_exact(monkeypatch, lambda: verify_coisometric_extension(chain)),
                   "chain/representation-restricts")
    assert not got.passed and not got.bound
    assert got.residual == want.residual
    system = case.pair.system
    d = usable_depth(system, [chain.rho], 1, case.pair.depth)
    oracle = max(residual(other.images(c[None], d)[0], pi.images(c[None], d)[0])
                 for c in np.eye(system.basis_size(d)))
    assert abs(got.residual - oracle) <= 1e-13


def test_passing_extend_sweeps_nothing_in_the_defect_decomposition(monkeypatch):
    with open(os.path.join(FIXTURES, "tower-levels.json"), encoding="utf-8") as fh:
        levels = json.load(fh)
    real_decomposition, real_sweep = extension_mod.defect_decomposition, \
        covariant_mod.basis_sweep
    inside, swept = [], []

    def decomposition(*args, **kwargs):
        inside.append(True)
        try:
            return real_decomposition(*args, **kwargs)
        finally:
            inside.pop()

    def sweep(*args, **kwargs):
        if inside:
            swept.append(args[0])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "defect_decomposition", decomposition)
    monkeypatch.setattr(covariant_mod, "basis_sweep", sweep)
    for data in (TOWER_DEEP, levels):
        report = run(build_scenario(data), "extend")
        assert report["passed"] and swept == []
        clauses = {c["name"]: c for c in report["clauses"]}
        assert clauses["defect/invariant"]["residual_kind"] == "bound"
        assert clauses["defect/diagonal-form"]["residual"] == 0.0
        assert "residual_kind" not in clauses["defect/diagonal-form"]
