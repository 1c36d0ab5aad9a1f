"""Load-time gate certificates: computed once, held, and reused.

Loading a scenario certifies alpha (``verify_endomorphism`` /
``verify_star_hom``) and pi (``verify``) on the finite backend, and the
pair's covariance and the strategy on both; the strategy gate reads Choi
positivity off the Kraus form of the transfer, which the transfer holds for
the steps to compose from.  Each report is held by the
object it certifies, keyed by the tolerance (and, for the strategy, by the
system and the depth).  Here no command run on a loaded scenario computes
any of them again, a different key or a rebuilt scenario does, and a write
to a certified array raises while the caller's own array stays its own.
"""

from dataclasses import replace

import numpy as np
import pytest

import covdilate.algebra as algebra_mod
import covdilate.covariant as covariant_mod
import covdilate.cpmaps as cpmaps_mod
from covdilate.algebra import StarHom, verify_endomorphism, verify_star_hom
from covdilate.cli import run
from covdilate.covariant import (CovariantPair, FiniteDimSystem, verify_covariance,
                                 verify_strategy)
from covdilate.numerics import DEFAULT_TOL, Tolerance
from covdilate.scenario import build_scenario, demo_fixture
from covdilate.tower import TowerSystem

COMMANDS = ("check", "extend", "unitary", "matricial", "compare")
OTHER_TOL = Tolerance(residual_tol=2e-8)


def _scenarios():
    """name -> scenario data: a finite and a tower scenario for each strategy kind."""
    automorphism = demo_fixture("automorphism")
    tower = demo_fixture("tower")
    return {
        "finite-adapted": automorphism,
        "finite-gns": dict(automorphism, strategy={"kind": "gns", "expectation": "identity"}),
        "tower-adapted": tower,
        "tower-gns": dict(tower, strategy={"kind": "gns",
                                           "phi": {"vector": [[0.6, 0], [0.8, 0]]}}),
    }


def _counting(monkeypatch):
    """Count the computations behind each load-time certificate: the
    star-hom sweeps by the map they certify, the rest by name; ``kraus``
    counts the Kraus forms of a transfer that either system builds, and
    ``verify_completely_positive`` the dense Choi eigensolves wherever they
    are called from."""
    calls = {"star-hom": [], "endomorphism": 0, "covariance": 0, "strategy": 0,
             "kraus": 0, "verify_completely_positive": 0}

    def counted(mod, attr, name, key=None):
        real = getattr(mod, attr)

        def wrapper(*args, **kwargs):
            if key is None:
                calls[name] += 1
            else:
                calls[name].append(key(*args))
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, attr, wrapper)

    counted(algebra_mod, "_star_hom_report", "star-hom", key=lambda h, tol: h)
    counted(algebra_mod, "_endomorphism_report", "endomorphism")
    counted(covariant_mod, "_covariance", "covariance")
    counted(covariant_mod, "_strategy_report", "strategy")
    counted(FiniteDimSystem, "transfer_kraus", "kraus")
    counted(TowerSystem, "transfer_kraus", "kraus")
    counted(cpmaps_mod, "verify_completely_positive", "verify_completely_positive")
    counted(covariant_mod, "verify_completely_positive", "verify_completely_positive")
    return calls


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_commands_reuse_the_load_certificates(name, monkeypatch):
    data = _scenarios()[name]
    scenario, other = build_scenario(data), build_scenario(dict(data, seed=7))
    finite = scenario.backend == "finite-dim"
    held = {id(scenario.system.alpha), id(scenario.pair.rep.hom)} if finite else set()
    calls = _counting(monkeypatch)
    # check runs twice: the second reuses the tower's stage certificates
    for command in ("check",) + COMMANDS:
        report = run(scenario, command, other if command == "compare" else None)
        assert report["passed"], (name, command)
    assert calls["endomorphism"] == calls["covariance"] == calls["strategy"] == 0, calls
    assert calls["kraus"] == calls["verify_completely_positive"] == 0, calls
    # the tower's first check certifies its stage view of pi and the shift's
    # stage map, held by the rep and the system: load computes neither
    assert not held & {id(h) for h in calls["star-hom"]}, name
    assert len(calls["star-hom"]) == (0 if finite else 2), name


def test_a_different_key_or_a_rebuilt_scenario_recomputes(monkeypatch):
    finite, tower = build_scenario(demo_fixture("automorphism")), build_scenario(
        demo_fixture("tower"))
    calls = _counting(monkeypatch)
    # another tolerance: every certificate again
    alpha = finite.system.alpha
    verify_endomorphism(alpha, OTHER_TOL)
    finite.pair.rep.verify(OTHER_TOL)
    verify_covariance(finite.pair, OTHER_TOL)
    verify_strategy(finite.system, finite.strategy, None, OTHER_TOL)
    assert calls["endomorphism"] == calls["covariance"] == calls["strategy"] == 1, calls
    assert [id(h) for h in calls["star-hom"]] == [id(alpha), id(finite.pair.rep.hom)]
    # the same tolerance again: nothing
    verify_star_hom(alpha, OTHER_TOL)
    verify_covariance(finite.pair, OTHER_TOL)
    assert calls["covariance"] == 1 and len(calls["star-hom"]) == 2, calls

    # another system (an equal one, but not the same object), another depth
    twin = FiniteDimSystem(finite.system.algebra, alpha)
    verify_strategy(twin, finite.strategy, None, finite.tol)
    t_depth = tower.system.stinespring_depth(tower.pair.depth)
    assert calls["strategy"] == 2, calls
    verify_strategy(tower.system, tower.strategy, t_depth, tower.tol)
    assert calls["strategy"] == 2, calls
    verify_strategy(tower.system, tower.strategy, t_depth + 1, tower.tol)
    assert calls["strategy"] == 3 and calls["kraus"] == 3, calls

    # a pair rebuilt from the same data holds no certificate
    verify_covariance(replace(tower.pair), tower.tol)
    assert calls["covariance"] == 2, calls

    # a rebuilt scenario runs every gate again
    for key in calls:
        calls[key] = [] if key == "star-hom" else 0
    build_scenario(demo_fixture("automorphism"))
    assert calls["endomorphism"] == calls["covariance"] == calls["strategy"] == 1, calls
    assert len(calls["star-hom"]) == 2 and calls["kraus"] == 1, calls


def test_a_finite_chain_gates_and_composes_from_one_kraus_form(monkeypatch):
    """Load and a three-level adapted extend build the transfer's Kraus form
    once: the gate reads its Choi positivity there, the levels above the
    first compose from it, and no dense Choi eigensolve runs."""
    calls = _counting(monkeypatch)
    scenario = build_scenario(dict(demo_fixture("automorphism"), levels=3))
    assert run(scenario, "extend")["passed"]
    assert calls["strategy"] == calls["kraus"] == 1, calls
    assert calls["verify_completely_positive"] == 0, calls


def test_writes_to_certified_arrays_raise():
    finite = build_scenario(demo_fixture("automorphism"))
    tower = build_scenario(demo_fixture("tower"))
    gns = build_scenario(_scenarios()["tower-gns"])
    arrays = {
        "alpha": finite.system.alpha.matrix,
        "pi": finite.pair.rep.hom.matrix,
        "finite contraction": finite.pair.contraction,
        "transfer": finite.strategy.transfer.matrix,
        "tower contraction": tower.pair.contraction,
        "tower transfer": tower.strategy.transfer.density,
        "tower expectation": gns.strategy.expectation.density,
    }
    for name, a in arrays.items():
        with pytest.raises(ValueError):
            a[0, 0] = 0.5
        with pytest.raises(ValueError):
            a += 0.0
        assert not a.flags.writeable, name
    # the held certificate stands, and a pair over a changed copy is certified afresh
    assert verify_covariance(finite.pair, finite.tol) <= finite.tol.residual_tol
    copy = finite.pair.contraction.copy()
    copy[0, 2] = 0.5
    moved = CovariantPair(finite.system, finite.pair.rep, copy)
    assert verify_covariance(moved, DEFAULT_TOL) > DEFAULT_TOL.residual_tol


def test_certified_objects_hold_their_own_copies():
    """The caller's array stays writable, and neither a write to it nor to
    the base of a view it passed reaches the held copy."""
    finite = build_scenario(demo_fixture("automorphism"))
    alpha = finite.system.alpha
    mine = alpha.matrix.copy()
    hom = StarHom(alpha.source, alpha.target, mine)
    assert verify_star_hom(hom, DEFAULT_TOL).passed
    mine *= 2.0
    assert mine.flags.writeable and not np.array_equal(hom.matrix, mine)
    assert verify_star_hom(hom, DEFAULT_TOL).passed
    assert verify_star_hom(StarHom(alpha.source, alpha.target, mine), DEFAULT_TOL).passed \
        is False

    t = finite.pair.contraction.copy()
    base = np.zeros((2,) + t.shape, dtype=complex)
    base[0] = t
    pair = CovariantPair(finite.system, finite.pair.rep, base[0])
    assert verify_covariance(pair, DEFAULT_TOL) <= DEFAULT_TOL.residual_tol
    base[0, 0, 2] = 0.5
    assert np.array_equal(pair.contraction, t) and pair.contraction.base is None
    assert verify_covariance(pair, DEFAULT_TOL) <= DEFAULT_TOL.residual_tol
    assert verify_covariance(CovariantPair(finite.system, finite.pair.rep, base[0]),
                             DEFAULT_TOL) > DEFAULT_TOL.residual_tol
