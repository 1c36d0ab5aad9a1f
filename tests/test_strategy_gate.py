"""The strategy gate on coordinate rows and the held Kraus form, against the
dense route it replaced (``dense_oracle.dense_strategy_report``).

``covariant.verify_strategy`` sweeps the left-inverse, idempotent and unital
clauses on coordinate rows and reads Choi positivity off the Kraus form of
the resolved transfer, the form every step composes from; on the tower the
expectation's range defect is exactly 0.0.  On the corpus and on the grid of
``test_tower_kraus`` (k = 3 stops at rep_depth 3, where the dense
expectation's coordinate matrix has side 729) both routes give the same
clauses, in the same order, with the same pass flags and values at
round-off, for both strategies.  Densities that are not states fail at the
same clauses; a non-Hermitian one, which every dense clause passes, is
refused at load; and loading a tower scenario takes no dense route.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import covdilate.covariant as covariant
import covdilate.cpmaps as cpmaps
from covdilate.cli import main
from covdilate.covariant import AdaptedStrategy, GnsStrategy, verify_strategy
from covdilate.cpmaps import expectation_from_transfer
from covdilate.errors import StrategyInvalid
from covdilate.numerics import DEFAULT_TOL
from covdilate.report import ClauseReport
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import (ShiftTower, TowerExpectation, TowerSystem, TowerTransfer,
                             state_density)

from dense_oracle import dense_strategy_report
from test_tower_kraus import PHIS, gns_tower_scenarios, phi_spec

FIXTURES = Path(__file__).parent / "fixtures"
GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


def both_strategies(system, strategy):
    """Fresh adapted and GNS strategies from one transfer: E = alpha o tau on
    the finite backend, E_phi of the same density on the tower."""
    tau = strategy.transfer
    if system.is_tower:
        return [AdaptedStrategy(TowerTransfer(tau.tower, tau.density)),
                GnsStrategy(TowerExpectation(tau.tower, tau.density))]
    return [AdaptedStrategy(tau), GnsStrategy(expectation_from_transfer(system.alpha, tau))]


def gate_report(system, strategy, depth, monkeypatch):
    """The package gate's report, passing or not (the last report whose pass
    flag the gate reads), and whether the gate raised."""
    seen = []
    real = ClauseReport.passed.fget
    with monkeypatch.context() as m:
        m.setattr(ClauseReport, "passed", property(lambda rep: seen.append(rep) or real(rep)))
        try:
            verify_strategy(system, strategy, depth, DEFAULT_TOL)
            raised = False
        except StrategyInvalid:
            raised = True
    return seen[-1], raised


def assert_same_clauses(got, want, name):
    assert [c.name for c in got.clauses] == [c.name for c in want.clauses], name
    assert [c.passed for c in got.clauses] == [c.passed for c in want.clauses], name
    for g, w in zip(got.clauses, want.clauses):
        assert abs(g.residual - w.residual) <= 1e-13, (name, g.name, g.residual, w.residual)
        assert g.threshold == w.threshold, (name, g.name)


def test_the_gate_is_the_dense_route_on_the_corpus(corpus, monkeypatch):
    for case in corpus:
        system = case.pair.system
        depth = system.stinespring_depth(case.pair.depth)
        for strategy in both_strategies(system, case.strategy):
            got, raised = gate_report(system, strategy, depth, monkeypatch)
            want = dense_strategy_report(system, strategy, depth)
            assert got.passed and want.passed and not raised, (case.name, strategy.kind)
            assert_same_clauses(got, want, (case.name, strategy.kind))


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("k, depth", GRID)
def test_the_gate_is_the_dense_route_on_the_tower_grid(k, depth, phi, monkeypatch):
    tower = ShiftTower(k, depth)
    rng = np.random.default_rng([k, depth, PHIS.index(phi)])
    density = state_density(tower, phi_spec(k, phi, rng))
    system = TowerSystem(tower)
    for strategy in both_strategies(system, AdaptedStrategy(TowerTransfer(tower, density))):
        got, raised = gate_report(system, strategy, depth, monkeypatch)
        want = dense_strategy_report(system, strategy, depth)
        assert got.passed and want.passed and not raised, strategy.kind
        assert_same_clauses(got, want, strategy.kind)
        if strategy.kind == "gns":
            assert got.clauses[-1].residual == 0.0 and not got.clauses[-1].bound


def _off_the_states(k, kind, rng):
    """A density of trace 1 with the lowest eigenvalue -0.2, or a state
    scaled to trace 1.1: built directly, past ``state_density``."""
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, _ = np.linalg.qr(z)
    if kind == "negative":
        vals = np.r_[-0.2, np.full(k - 1, 1.2 / (k - 1))]
        return (q * vals) @ q.conj().T
    rho = z @ z.conj().T
    return 1.1 * rho / np.trace(rho).real


@pytest.mark.parametrize("kind, failing", [
    ("negative", {"transfer/completely-positive", "expectation/completely-positive"}),
    ("trace", {"transfer/left-inverse", "transfer/unital", "expectation/idempotent",
               "expectation/unital"}),
])
@pytest.mark.parametrize("k, depth", [(2, 2), (3, 2), (2, 3)])
def test_a_density_off_the_states_fails_at_the_same_clauses(k, depth, kind, failing,
                                                           monkeypatch):
    tower = ShiftTower(k, depth)
    density = _off_the_states(k, kind, np.random.default_rng([k, depth]))
    system = TowerSystem(tower)
    for strategy in both_strategies(system, AdaptedStrategy(TowerTransfer(tower, density))):
        got, raised = gate_report(system, strategy, depth, monkeypatch)
        want = dense_strategy_report(system, strategy, depth)
        assert raised and not want.passed, strategy.kind
        assert {c.name for c in got.clauses if not c.passed} \
            == {c.name for c in want.clauses if not c.passed} \
            == {c.name for c in got.clauses} & failing, strategy.kind
        assert_same_clauses(got, want, strategy.kind)


@pytest.mark.parametrize("kind", ["adapted", "gns"])
def test_a_non_hermitian_state_is_refused_at_load(kind, tmp_path, capsys):
    """Every clause passes on the Hermitian part of this density, the dense
    route's too; the transfer's Choi matrix is not Hermitian, so no step
    could dilate it, and the gate refuses it."""
    data = json.loads((FIXTURES / "tower-gns.json").read_text())
    rows = [[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]
    data["strategy"] = {"kind": kind, "phi": {"density": [[[x, 0.0] for x in r] for r in rows]}}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(data))
    for command in ("check", "extend"):
        assert main([command, "--scenario", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert "[strategy] Choi matrix of the transfer is not hermitian (residual 2.984e-01)" \
            in err, err
    tower = ShiftTower(3, 4)
    strategy = both_strategies(TowerSystem(tower), AdaptedStrategy(
        TowerTransfer(tower, np.array(rows, dtype=complex))))[kind == "gns"]
    assert dense_strategy_report(TowerSystem(tower), strategy, 2).passed


def test_loading_a_tower_scenario_takes_no_dense_route(monkeypatch):
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called while loading a tower scenario")
        return record

    for name in ("verify_transfer", "verify_completely_positive", "idempotency_residual",
                 "range_defect", "choi_spectra"):
        for module in (cpmaps, covariant):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    stage4 = json.loads((FIXTURES / "tower-stage4.json").read_text())
    for data in [demo_fixture("tower"), stage4, dict(stage4, strategy={"kind": "gns",
                                                                       "phi": "trace"}),
                 json.loads((FIXTURES / "tower-gns.json").read_text())] \
            + gns_tower_scenarios():
        build_scenario(data)
    assert calls == []
