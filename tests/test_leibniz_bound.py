"""``chain/covariance`` by the Leibniz bound over the local units, against the
full basis sweep.

On the tower at depth d >= 2, where every part of the chain's rho is a
``TowerRep`` or a ``KrausRep`` and pi restricts exactly, the clause is d
times the largest ||V rho(alpha(u)) - rho(u) V|| over the d k^2 local units
u, labelled a bound, when that is at or below the threshold (proof in the
``extension`` module docstring).  Here the local units multiply to the
matrix units, the bound is at least the exact absolute maximum over the
basis with the pass flags of the exact sweep, d = 1 and finite chains keep
the full sweep, and a passing ``extend`` sweeps nothing inside
``verify_coisometric_extension`` but the local units.
"""

import itertools
import json
import os

import numpy as np

import covdilate.cli as cli_mod
import covdilate.covariant as covariant_mod
import covdilate.extension as extension_mod
from covdilate.cli import run
from covdilate.covariant import usable_depth
from covdilate.extension import coisometric_extend, verify_coisometric_extension
from covdilate.numerics import DEFAULT_TOL, basis_sweep
from covdilate.scenario import build_scenario
from covdilate.tower import ShiftTower, TowerSystem

from test_commutant_bound import FIXTURES, TOWER_DEEP
from test_kraus_coordinates import _deep_case


def _levels_fixture():
    with open(os.path.join(FIXTURES, "tower-levels.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _depth(chain):
    pair = chain.pair
    return usable_depth(pair.system, [pair.rep, chain.rho], 1, pair.depth)


def _covariance(chain, monkeypatch=None):
    """The clause as shipped, or with the Leibniz bound turned off."""
    if monkeypatch is None:
        report = verify_coisometric_extension(chain)
    else:
        with monkeypatch.context() as m:
            m.setattr(extension_mod, "_covariance_bound", lambda *args: None)
            report = verify_coisometric_extension(chain)
    return next(c for c in report.clauses if c.name == "chain/covariance")


def _full_basis_max(chain):
    """max over the basis of ||V rho(alpha(a)) - rho(a) V||, exact and absolute."""
    system, rho, v, d = chain.pair.system, chain.rho, chain.v, _depth(chain)
    (value,) = basis_sweep(system.basis_size(d), lambda c: (c, *system.alpha_coords(c, d)),
                           lambda c, ac, ad: rho.act(ac, ad, v, right=True) - rho.act(c, d, v))
    return value


def _chains(corpus):
    """(name, chain): the tower corpus and the rep_depth = 3 tower, seeded
    and not, the tower-deep shape and the levels fixture."""
    cases = [c for c in corpus if c.backend == "tower"] + [_deep_case()]
    for case in cases:
        for seed in (None, 17):
            yield f"{case.name}-seed{seed}", coisometric_extend(
                case.pair, case.levels, case.strategy, DEFAULT_TOL, seed)
    for name, data in (("tower-deep", TOWER_DEEP), ("levels", _levels_fixture())):
        s = build_scenario(data)
        yield name, coisometric_extend(s.pair, s.levels, s.strategy, s.tol, s.seed)


def test_local_units_multiply_to_the_matrix_units():
    for k, d in ((2, 2), (2, 3), (3, 2)):
        system = TowerSystem(ShiftTower(k, d + 1))
        s = k ** d
        units = system.local_units(d).reshape(d, k, k, s, s)
        for big_i, big_j in itertools.product(range(s), repeat=2):
            digits = zip(np.unravel_index(big_i, (k,) * d), np.unravel_index(big_j, (k,) * d))
            product = np.eye(s)
            for t, (i, j) in enumerate(digits):
                product = product @ units[t, i, j]
            want = np.zeros((s, s))
            want[big_i, big_j] = 1.0
            assert np.array_equal(product, want), (k, d, big_i, big_j)
    assert TowerSystem(ShiftTower(2, 3)).local_units(1) is None


def test_bound_covers_the_full_basis_max(corpus, monkeypatch):
    bounded = 0
    for name, chain in _chains(corpus):
        got, want = _covariance(chain), _covariance(chain, monkeypatch)
        assert got.passed == want.passed, name
        if _depth(chain) < 2:
            # the full sweep, as with the bound turned off
            assert got.residual == want.residual, name
            continue
        assert got.bound and got.passed, name
        assert got.residual >= _full_basis_max(chain), name
        bounded += 1
    assert bounded >= 8


def test_depth_one_and_finite_chains_keep_the_full_sweep(corpus, monkeypatch):
    real = extension_mod.basis_sweep
    swept = []

    def sweep(*args, **kwargs):
        swept.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(extension_mod, "basis_sweep", sweep)
    kinds = set()
    for case in corpus:
        chain = coisometric_extend(case.pair, case.levels, case.strategy)
        d = _depth(chain)
        if d is not None and d >= 2:
            continue
        assert case.pair.system.local_units(d) is None, case.name
        swept.clear()
        verify_coisometric_extension(chain)
        assert swept == [case.pair.system.basis_size(d)], case.name
        kinds.add(case.backend)
    assert kinds == {"finite-dim", "tower"}


def test_passing_extend_sweeps_only_the_local_units(monkeypatch):
    """Inside ``verify_coisometric_extension`` the one sweep is that of the
    local units: the containment notes come from the frame row blocks and
    restriction is exact."""
    real_verify = extension_mod.verify_coisometric_extension
    real_sweeps = {mod: mod.basis_sweep for mod in (extension_mod, covariant_mod)}
    inside, swept = [], []

    def verify(*args, **kwargs):
        inside.append(True)
        try:
            return real_verify(*args, **kwargs)
        finally:
            inside.pop()

    def recording(mod):
        def sweep(*args, **kwargs):
            if inside:
                swept.append(args[0])
            return real_sweeps[mod](*args, **kwargs)
        return sweep

    monkeypatch.setattr(cli_mod, "verify_coisometric_extension", verify)
    for mod in real_sweeps:
        monkeypatch.setattr(mod, "basis_sweep", recording(mod))
    for data in (TOWER_DEEP, _levels_fixture()):
        scenario = build_scenario(data)
        swept.clear()
        report = run(scenario, "extend")
        assert report["passed"]
        d = usable_depth(scenario.pair.system, [scenario.pair.rep], 1, scenario.pair.depth)
        assert len(swept) == 1
        assert np.array_equal(swept[0], scenario.pair.system.local_units(d))
        clauses = {c["name"]: c for c in report["clauses"]}
        assert clauses["chain/covariance"]["residual_kind"] == "bound"
        levels = [n for n in report["notes"] if n.startswith("level ")]
        assert [n.split(":")[0] for n in levels] \
            == [f"level {k}" for k in range(1, data["levels"])]
