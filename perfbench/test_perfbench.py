"""Tests of the benchmark itself: generator, references, gate and tracer."""

import dataclasses
import json
import os

import pytest

import gate
import run
import tracer
import workloads
from covdilate import cli, scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOWER_FIELDS = ("k", "d_max", "rep_depth", "multiplicity", "levels", "copies")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_scenarios_pass_the_gates_at_two_seeds(name):
    for seed in (3, 17):
        wl = workloads.build(name, seed)
        for key, data in wl.scenarios.items():
            assert data["schema"] == 1
            json.dumps(data)  # plain JSON, nothing else
            scenario.build_scenario(data)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_structure_does_not_depend_on_the_seed(name):
    a, b = workloads.build(name, 3), workloads.build(name, 17)
    assert a.ops == b.ops
    assert a.scenarios.keys() == b.scenarios.keys()
    for key, data in a.scenarios.items():
        other = b.scenarios[key]
        if data["backend"] == "tower":
            assert [data.get(f) for f in TOWER_FIELDS] == [other.get(f) for f in TOWER_FIELDS]
            assert data["strategy"].keys() == other["strategy"].keys()
        else:
            for field in ("blocks", "levels", "copies", "strategy"):
                assert data[field] == other[field]
            assert data["pi"]["multiplicities"] == other["pi"]["multiplicities"]
    assert a.scenarios != b.scenarios


def test_same_seed_gives_the_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_covers_every_op(name):
    wl = workloads.build(name, gate.REFERENCE_SEED)
    assert set(gate.load_reference(name)) == {op.id for op in wl.ops}


def test_gate_accepts_the_reference_and_rejects_a_changed_structure():
    wl = workloads.build("small-sweep", 9)
    reference = gate.load_reference("small-sweep")
    built = {k: scenario.build_scenario(v) for k, v in wl.scenarios.items()
             if k.startswith("demo-automorphism")}
    for op in wl.ops:
        if op.scenario == "demo-automorphism":
            report = cli.run(built[op.scenario], op.command)
            assert gate.check(reference[op.id], report, None) == []
    changed = json.loads(json.dumps(report))
    changed["dimensions"]["space"] += 1
    assert gate.check(reference[op.id], changed, None) == ["dimensions differs from the reference"]
    assert gate.check(reference[op.id], None, "NotCP: boom") == ["raised NotCP: boom"]


def test_tracer_counts_calls_and_restores_the_package():
    wl = workloads.build("small-sweep", 1)
    built = scenario.build_scenario(wl.scenarios["random-04"])
    plain = cli.render_report(cli.run(built, "matricial"))
    original = cli.run
    with tracer.Tracer() as tr:
        traced = cli.render_report(cli.run(built, "matricial"))
    assert cli.run is original
    assert traced == plain
    m = tr.metrics(0.0)
    assert list(m) == tracer.metric_names()
    assert m["cli.run.matricial.calls"] == 1
    assert m["numerics.residual.calls"] > 0
    assert m["equivalence.dilation_intertwiner.calls"] == 1
    assert m["equivalence.verdict.equivalent"] == 1
    assert 0 < m["numerics.residual.self_s"] <= m["numerics.residual.total_s"]
    assert m["numerics.residual.total_s"] < m["cli.run.matricial.total_s"]


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])


def test_cross_check_outcomes_are_told_apart():
    record = (1.0, "abc", True, [])
    same = {"op": "x/0", "exit_code": 0, "sha256": "abc"}
    assert run._judge_cross_check(same, record)["outcome"] == "match"
    judged = run._judge_cross_check(dict(same, sha256="def"), record)
    assert judged["outcome"] == "mismatch"
    assert judged["problems"] == ["report bytes differ from the in-process report"]
    timeout = {"op": "x/0", "outcome": "timeout", "problems": ["no result"]}
    assert run._judge_cross_check(timeout, record)["outcome"] == "timeout"


def test_a_pass_keeps_digests_not_reports():
    wl = workloads.build("small-sweep", 2)
    ops = [op for op in wl.ops if op.scenario == "demo-automorphism"]
    built = {"demo-automorphism": scenario.build_scenario(wl.scenarios["demo-automorphism"])}
    wall, records = run._run_pass(cli, built, ops, gate.load_reference("small-sweep"))
    assert wall == sum(rec[0] for rec in records)
    for seconds, digest, passed, problems in records:
        assert len(digest) == 64 and passed is True and problems == []
    out, attempted, failed = run._collect(ops, [(wall, records), (wall, records)])
    assert (attempted, failed) == (2 * len(ops), 0)


def test_a_repeated_op_reports_the_median_of_its_repetitions():
    wl = workloads.build("small-sweep", 2)
    check, extend = (dataclasses.replace(op, repeat=r) for op, r in zip(
        (op for op in wl.ops if op.scenario == "demo-scalar"), (3, 1)))
    built = {"demo-scalar": scenario.build_scenario(wl.scenarios["demo-scalar"])}
    calls = []
    real_run = cli.run

    class Counting:
        @staticmethod
        def run(*args):
            calls.append(args[1])
            return real_run(*args)

        render_report = staticmethod(cli.render_report)

    wall, records = run._run_pass(Counting, built, [check, extend],
                                  gate.load_reference("small-sweep"))
    # round-robin: every op once, then the repeated op again
    assert calls == ["check", "extend", "check", "check"]
    assert len(records) == 2 and all(rec[3] == [] for rec in records)
    assert wall == records[0][0] + records[1][0]


def test_tower_wide_repeats_only_its_short_ops():
    wl = workloads.build("tower-wide", 0)
    repeated = {op.id for op in wl.ops if op.repeat > 1}
    assert repeated == {op.id for op in wl.ops
                        if op.command in ("check", "compare") or op.scenario == "gns-a"}
