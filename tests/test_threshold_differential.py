"""Threshold-aware clause values against the exact kernel, end to end.

Every command runs twice: as shipped, where each clause value is decided
against its threshold by a norm bound, and with ``numerics._clause_max``
patched to ignore the threshold, with the commutant bound of the
invariance clauses, the projection bound of the covariance and
intertwining clauses and the Frobenius bound of ``expectation/range``
turned off, so that every value is exact.  The patch
sits where block operators are reduced per component too, so the
whole-chain and whole-dilation clauses are compared as well; the last test
shows that none of those reductions receives a stack of the total side.  Both runs
must give the same dimensions, clause names, pass flags, verdicts,
witnesses, notes and rejections; a passing value is at least its exact
value (4 eps relative), and a failing one, or one not labelled a bound, is
bit-equal to it.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import covdilate.covariant as covariant_mod
import covdilate.numerics as numerics_mod
from covdilate.algebra import FiniteDimCStarAlgebra, StarHom
from covdilate.cli import render_report, run
from covdilate.covariant import FiniteDimSystem, extend_representation, two_step
from covdilate.cpmaps import kraus_span
from covdilate.dilation import compose_unitary, verify_isometric_dilation
from covdilate.errors import InvarianceViolation, NotHermitian, RangeNotInImage
from covdilate.extension import (coisometric_extend, defect_decomposition,
                                 verify_coisometric_extension)
from covdilate.numerics import DEFAULT_TOL, BlockOperator, psd_sqrt
from covdilate.scenario import DEMO_NAMES, Scenario, build_scenario, demo_fixture

from conftest import make_tower_case
from test_basis_sweep import _dropping_span

EPS = np.finfo(float).eps
COMMANDS = ("check", "extend", "dilate", "unitary", "matricial")


def _twice(monkeypatch, fn, block_terms=None):
    """(fn() as shipped, fn() with every clause value exact); the exact run
    appends to ``block_terms`` whether each reduced term is a block operator.
    It also turns off the commutant bound of the invariance clauses and
    the projection bound of the covariance and intertwining clauses, which
    decide a value without a sweep, so that every one of them is swept over
    the basis, and the Frobenius bound of ``expectation/range``."""
    aware = fn()
    real = numerics_mod._clause_max
    real_range = covariant_mod.range_defect

    def exact(term, threshold=None):
        if block_terms is not None:
            first = term[0] if isinstance(term, tuple) else term
            block_terms.append(isinstance(first, BlockOperator))
        return real(term)

    with monkeypatch.context() as m:
        m.setattr(numerics_mod, "_clause_max", exact)
        m.setattr(covariant_mod, "commutant_bound", lambda *args: math.inf)
        m.setattr(covariant_mod, "intertwiner_bound", lambda x, rows, cols: math.inf)
        m.setattr(covariant_mod, "range_defect",
                  lambda alpha, mat, tol, threshold=None: real_range(alpha, mat, tol))
        exact = fn()
    return aware, exact


def _same_value(got, want, bound, passed, where):
    if bound:
        assert passed, where
        assert got >= want * (1.0 - 4.0 * EPS), (where, got, want)
    else:
        assert got == want, (where, got, want)


def _compare_reports(aware, exact, where):
    for key in ("command", "dimensions", "notes", "passed"):
        assert aware.get(key) == exact.get(key), (where, key)
    assert [c["name"] for c in aware["clauses"]] == [c["name"] for c in exact["clauses"]]
    for got, want in zip(aware["clauses"], exact["clauses"]):
        name = f"{where} {got['name']}"
        for key in ("identity", "threshold", "passed", "note"):
            assert got.get(key) == want.get(key), (name, key)
        assert "residual_kind" not in want, name
        _same_value(got["residual"], want["residual"],
                    got.get("residual_kind") == "bound", got["passed"], name)
    assert aware.get("verdicts", {}).keys() == exact.get("verdicts", {}).keys()
    for key, cert in aware.get("verdicts", {}).items():
        ref = exact["verdicts"][key]
        for field in ("verdict", "threshold", "witness", "note"):
            assert cert.get(field) == ref.get(field), (where, key, field)
        assert "residual_kinds" not in ref
        kinds = cert.get("residual_kinds", {})
        assert cert["residuals"].keys() == ref["residuals"].keys()
        for name, value in cert["residuals"].items():
            _same_value(value, ref["residuals"][name], name in kinds,
                        value <= cert["threshold"], f"{where} {key}/{name}")


def _corpus_scenario(case, seed=None):
    """The case as a scenario with a fresh pair and strategy, which hold no
    certificate yet: built inside a patched call, the exact run computes
    its own instead of reusing the aware run's."""
    pair, strategy = replace(case.pair), replace(case.strategy)
    return Scenario({"corpus": case.name, "seed": seed}, case.backend, pair.system,
                    pair, strategy, case.levels, case.copies, DEFAULT_TOL, seed)


def test_demo_reports_agree_with_exact_values(monkeypatch):
    bounds = 0
    for name in DEMO_NAMES:
        data = demo_fixture(name)
        for command in COMMANDS:
            aware, exact = _twice(monkeypatch,
                                  lambda: run(build_scenario(data), command))
            _compare_reports(aware, exact, f"{name}-{command}")
            bounds += sum(c.get("residual_kind") == "bound" for c in aware["clauses"])
            # a rerun is byte-identical
            assert render_report(run(build_scenario(data), command)) == render_report(aware)
    assert bounds > 0


def test_corpus_reports_agree_with_exact_values(corpus, monkeypatch):
    bounds = 0
    for case in corpus:
        # the three-level tower chain runs extend only: its unitary and
        # matricial commands take seconds with exact values
        commands = ("extend",) if case.levels > 2 and case.backend == "tower" \
            else ("extend", "unitary", "matricial")
        for command in commands:
            block_terms = []
            aware, exact = _twice(monkeypatch, lambda: run(_corpus_scenario(case), command),
                                  block_terms)
            _compare_reports(aware, exact, f"{case.name}-{command}")
            bounds += sum(c.get("residual_kind") == "bound" for c in aware["clauses"])
            # the block clauses went through the patched reduction
            assert any(block_terms), (case.name, command)
    assert bounds > 0


def test_corpus_comparisons_agree_with_exact_values(corpus, monkeypatch):
    verdicts = set()
    for case in corpus[::6]:
        aware, exact = _twice(monkeypatch, lambda: run(_corpus_scenario(case), "compare",
                                                       _corpus_scenario(case, seed=5)))
        _compare_reports(aware, exact, f"{case.name}-compare")
        verdicts.add(aware["verdicts"]["chains"]["verdict"])
    assert "equivalent" in verdicts


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_rejections_agree_with_exact_values(corpus, monkeypatch):
    # InvarianceViolation: a two-step that reports a proper subspace of its span
    case = next(c for c in corpus if c.backend == "tower")
    ext = extend_representation(case.pair.system, case.pair.rep, case.strategy,
                                case.pair.depth)

    def drifting():
        with monkeypatch.context() as m:
            m.setattr(covariant_mod, "kraus_span", _dropping_span(kraus_span))
            two_step(case.pair, ext)

    aware, exact = _twice(monkeypatch, lambda: _raised(drifting))
    assert aware == exact and aware[0] is InvarianceViolation

    # NotHermitian: the psd_sqrt gate
    skew = np.array([[1.0, 1e-3], [0.0, 1.0]])
    aware, exact = _twice(monkeypatch, lambda: _raised(lambda: psd_sqrt(skew)))
    assert aware == exact and aware[0] is NotHermitian
    assert re.fullmatch(r"hermitian residual \S+", aware[1])

    # RangeNotInImage: the GNS inverse of the dynamics
    alg = FiniteDimCStarAlgebra((1, 1))
    system = FiniteDimSystem(alg, StarHom(alg, alg, np.array([[1.0, 0.0], [1.0, 0.0]])))
    rows = np.array([[2.0, 2.0], [1.0, 1.0 + 1e-3]])
    aware, exact = _twice(monkeypatch, lambda: _raised(lambda: system.solve_alpha_rows(rows)))
    assert aware == exact and aware[0] is RangeNotInImage


def test_no_clause_reduces_a_total_side_stack(monkeypatch):
    """On the k = 2, rep_depth = 3 tower (blocks 8 / 32 / 128) every stack a
    chain, defect or dilation clause reduces is smaller than the total side."""
    case = make_tower_case(np.random.default_rng(7), 90, rep_depth=3, n_levels=2)
    chain = coisometric_extend(case.pair, case.levels, case.strategy)
    sides = []
    real = numerics_mod._clause_max

    def recording(term, threshold=None):
        ops = term if isinstance(term, tuple) else (term,)
        if isinstance(ops[0], BlockOperator):
            ops = numerics_mod._component_stacks(ops)
        sides.extend(max(np.shape(op)[-2:]) for op in ops)
        return real(term, threshold)

    monkeypatch.setattr(numerics_mod, "_clause_max", recording)
    verify_coisometric_extension(chain)
    defect_decomposition(chain)
    assert sides and max(sides) < chain.total_dim, (max(sides), chain.total_dim)

    sides.clear()
    rec = compose_unitary(chain, case.copies)
    verify_isometric_dilation(rec)
    assert sides and max(sides) < rec.total_dim, (max(sides), rec.total_dim)
