import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import covdilate.covariant as covariant
from covdilate.cli import main, render_report, run
from covdilate.errors import ScenarioParseError, ScenarioValidationError
from covdilate.scenario import (DEMO_NAMES, build_scenario, demo_fixture,
                                load_scenario, parse_matrix, parse_scalar)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_scalar_and_matrix():
    assert parse_scalar(2) == 2.0 + 0j
    assert parse_scalar([1, -1]) == 1.0 - 1.0j
    with pytest.raises(ScenarioParseError):
        parse_scalar("x")
    m = parse_matrix([[[0, 1], [1, 0]], [[2, 0], 3]])
    assert np.allclose(m, np.array([[1j, 1.0], [2.0, 3.0]]))


def test_minimal_scalar_scenario_loads(tmp_path):
    data = demo_fixture("scalar")
    sc = load_scenario(write(tmp_path, "s.json", data))
    assert sc.backend == "finite-dim"
    assert sc.pair.space_dim == 1
    assert sc.levels == 3 and sc.copies == 3


def test_contraction_gate(tmp_path):
    data = demo_fixture("scalar")
    data["T"] = [[[1.5, 0.0]]]
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write(tmp_path, "bad.json", data))
    assert err.value.gate == "contraction"


def test_depth_budget_gate(tmp_path):
    data = demo_fixture("tower")
    data["levels"] = 9
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(write(tmp_path, "deep.json", data))
    assert err.value.gate == "depth budget"


def test_copies_beyond_check_depth_gate(tmp_path):
    # d_max leaves room for the copies, but the check depth rep_depth - 1 = 1
    # does not: the dilations would fail only after building the chain
    data = demo_fixture("tower")
    data.update(levels=1, copies=2)
    path = write(tmp_path, "copies.json", data)
    with pytest.raises(ScenarioValidationError, match="check depth") as err:
        load_scenario(path)
    assert err.value.gate == "depth budget"
    assert main(["dilate", "--scenario", path, "--out", str(tmp_path / "r.json")]) == 2


def test_covariance_gate():
    data = demo_fixture("automorphism")
    data["T"] = [[[0.5 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    with pytest.raises(ScenarioValidationError) as err:
        build_scenario(data)
    assert err.value.gate == "covariance"


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1,')
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(str(path))
    assert "line" in str(err.value)


def test_strategy_gate():
    data = demo_fixture("scalar")
    data["strategy"] = {"kind": "adapted", "tau": {"coords": [[[0.5, 0.0]]]}}
    with pytest.raises(ScenarioValidationError) as err:
        build_scenario(data)
    assert err.value.gate == "strategy"


def test_run_check_scalar_all_clauses_pass():
    sc = build_scenario(demo_fixture("scalar"))
    report = run(sc, "check")
    assert report["passed"]
    names = [c["name"] for c in report["clauses"]]
    assert "pair/covariance" in names
    assert all("residual" in c and "threshold" in c for c in report["clauses"])


def test_run_unitary_scalar_compression_exact():
    sc = build_scenario(demo_fixture("scalar"))
    report = run(sc, "unitary")
    assert report["passed"]
    comp = next(c for c in report["clauses"] if c["name"] == "unitary/compression")
    assert comp["residual"] <= 1e-12


def test_compare_tower_states_inequivalent():
    a = demo_fixture("tower")
    b = demo_fixture("tower")
    b["strategy"] = {"kind": "adapted", "phi": {"vector": [[1, 0], [0, 0]]}}
    sa = build_scenario(a)
    sb = build_scenario(b)
    report = run(sa, "compare", other=sb)
    assert report["verdicts"]["chains"]["verdict"] == "inequivalent"
    w = report["verdicts"]["chains"]["witness"]
    assert w["mismatch"] >= 1e-7


def test_compare_same_scenario_equivalent():
    sa = build_scenario(demo_fixture("tower"))
    sb = build_scenario(demo_fixture("tower"))
    report = run(sa, "compare", other=sb)
    assert report["verdicts"]["chains"]["verdict"] == "equivalent"
    assert report["passed"]


def test_compare_rejects_mismatched_tolerances(monkeypatch):
    a = demo_fixture("tower")
    b = demo_fixture("tower")
    b["tolerances"] = {"residual_tol": 1e-9}
    sa, sb = build_scenario(a), build_scenario(b)

    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was built before the tolerance gate")

    monkeypatch.setattr("covdilate.cli.coisometric_extend", no_chain)
    with pytest.raises(ScenarioValidationError) as err:
        run(sa, "compare", other=sb)
    assert err.value.gate == "tolerance"


def test_cli_compare_mismatched_tolerances_exit_code(tmp_path):
    a = write(tmp_path, "a.json", demo_fixture("tower"))
    b = dict(demo_fixture("tower"))
    b["tolerances"] = {"psd_floor": 1e-11}
    bp = write(tmp_path, "b.json", b)
    out = tmp_path / "r.json"
    assert main(["compare", "--scenario", a, "--other", bp, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["compare", "--scenario", a, "--other", a, "--out", str(out)]) == 0


def test_cli_exit_codes(tmp_path):
    good = write(tmp_path, "good.json", demo_fixture("scalar"))
    assert main(["check", "--scenario", good, "--out", str(tmp_path / "r.json")]) == 0
    bad = dict(demo_fixture("scalar"))
    bad["T"] = [[[2.0, 0.0]]]
    badp = write(tmp_path, "bad.json", bad)
    assert main(["check", "--scenario", badp]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["check", "--scenario", missing]) == 2


def test_cli_clause_failure_exit_code(tmp_path):
    data = demo_fixture("tower")
    # irrational defect directions leave machine-noise residuals, and a valid
    # but unreachable tolerance turns those into clause failures
    data["pair"] = {"scale": 0.9, "u": [[0.6, 0], [0.8, 0]], "v": [[0.6, 0], [0, 0.8]]}
    data["tolerances"] = {"rank_eps": 1e-18, "residual_tol": 1e-17, "psd_floor": 1e-18}
    path = write(tmp_path, "tight.json", data)
    assert main(["check", "--scenario", path, "--out", str(tmp_path / "r.json")]) == 1


def test_cli_invalid_tol_override_is_validation_error(tmp_path):
    good = write(tmp_path, "good.json", demo_fixture("scalar"))
    # residual_tol below rank_eps violates the tolerance invariant
    assert main(["check", "--scenario", good, "--tol", "1e-12"]) == 2


@pytest.mark.parametrize("fixture, field, value", [
    ("scalar", "levels", "two"),
    ("scalar", "copies", None),
    ("scalar", "seed", "x"),
    ("scalar", "blocks", ["a"]),
    ("scalar", "blocks", [0]),
    ("tower", "size_cap", "big"),
    ("tower", "pair", {"scale": "x"}),
    ("scalar", "seed", -1),
    ("tower", "seed", -3),
])
def test_malformed_field_is_schema_error(tmp_path, fixture, field, value):
    data = demo_fixture(fixture)
    data[field] = value
    path = write(tmp_path, "bad.json", data)
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.gate == "schema"
    assert main(["check", "--scenario", path]) == 2


def _tower_pair_field(key, value):
    data = demo_fixture("tower")
    data["pair"] = {**data["pair"], key: value}
    return data


def _tower_phi(vector):
    data = demo_fixture("tower")
    data["strategy"] = {"kind": "adapted", "phi": {"vector": vector}}
    return data


@pytest.mark.parametrize("data, gate", [
    ({**demo_fixture("scalar"), "T": [[[float("nan"), 0]]]}, None),
    ({**demo_fixture("scalar"), "T": [[[float("inf"), 0]]]}, None),
    ({**demo_fixture("scalar"), "T": [[[True, 0]]]}, None),
    ({**demo_fixture("scalar"), "T": [[10 ** 400]]}, None),
    (_tower_pair_field("u", [[0, 0], [0, 0]]), "schema"),
    (_tower_pair_field("v", [0, 0]), "schema"),
    (_tower_pair_field("u", [[1, 0], [0, 0], [0, 0]]), "schema"),
    (_tower_pair_field("v", [1]), "schema"),
    (_tower_phi([0, 0]), "schema"),
    (_tower_phi([1, 0, 0]), "schema"),
    ({**demo_fixture("tower"), "multiplicity": 0}, "schema"),
    ({**demo_fixture("tower"), "multiplicity": 200}, "size cap"),
    (_tower_pair_field("scale", 1.5), "contraction"),
    ({**demo_fixture("scalar"), "tolerances": {"residual_tol": float("inf")}}, "schema"),
    ({**demo_fixture("scalar"), "tolerances": {"residual_tol": True}}, "schema"),
    ({**demo_fixture("scalar"), "tolerances": {"rank_eps": float("nan")}}, "schema"),
    (_tower_pair_field("scale", True), "schema"),
    (_tower_pair_field("scale", float("inf")), "schema"),
], ids=["nan", "infinity", "boolean", "huge-integer", "zero-u", "zero-v", "long-u",
        "short-v", "zero-phi", "long-phi", "multiplicity-0", "size-cap", "scale",
        "infinite-residual-tol", "boolean-residual-tol", "nan-rank-eps", "boolean-scale",
        "infinite-scale"])
def test_malformed_numbers_exit_2_with_their_gate(tmp_path, data, gate):
    # non-finite and boolean entries fail to parse, zero or wrong-length
    # vectors, a multiplicity below 1 and a tolerance or scale that is not a
    # finite number fail gate schema; a size cap and a scale outside [0, 1]
    # keep their own gates
    path = write(tmp_path, "bad.json", data)
    if gate is None:
        with pytest.raises(ScenarioParseError):
            load_scenario(path)
    else:
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path)
        assert err.value.gate == gate
    assert main(["check", "--scenario", path]) == 2


@pytest.mark.parametrize("field, value, gate", [
    ("k", 1, "schema"), ("d_max", 0, "schema"), ("d_max", 9, "size cap"),
], ids=["k-1", "d_max-0", "over-size-cap"])
def test_tower_construction_errors_keep_their_gates(tmp_path, field, value, gate):
    # k < 2 and d_max < 1 are schema errors of the tower itself; only
    # k^d_max above the size cap is the size-cap gate
    path = write(tmp_path, "bad.json", {**demo_fixture("tower"), field: value})
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path)
    assert err.value.gate == gate
    assert main(["check", "--scenario", path]) == 2


def test_command_line_tolerance_must_be_finite(tmp_path):
    path = write(tmp_path, "scalar.json", demo_fixture("scalar"))
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(path, float("inf"))
    assert err.value.gate == "schema"
    assert main(["check", "--scenario", path, "--tol", "inf"]) == 2


INTEGER_FIELDS = [
    ("scalar", ("levels",)), ("scalar", ("copies",)), ("scalar", ("seed",)),
    ("scalar", ("blocks", 0)), ("scalar", ("pi", "multiplicities", 0)),
    ("tower", ("k",)), ("tower", ("d_max",)), ("tower", ("rep_depth",)),
    ("tower", ("multiplicity",)), ("tower", ("size_cap",)),
]


def _with_field(fixture, path, value):
    data = demo_fixture(fixture)
    if fixture == "tower":
        data.setdefault("size_cap", 256)    # the default, spelled out to vary it
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    old = target[last]
    target[last] = value(old)
    return data


@pytest.mark.parametrize("fixture, path", INTEGER_FIELDS)
def test_integer_fields_reject_booleans_and_fractions(fixture, path):
    # int() would have read 3.5 as 3, True as 1 and "3" as 3
    for bad in (lambda v: v + 0.5, lambda v: True, lambda v: str(v)):
        with pytest.raises(ScenarioValidationError) as err:
            build_scenario(_with_field(fixture, path, bad))
        assert err.value.gate == "schema", (path, err.value)
    # an integral float is the integer, never a truncation of anything
    exact = build_scenario(_with_field(fixture, path, int))
    floated = build_scenario(_with_field(fixture, path, float))
    assert (floated.levels, floated.copies, floated.seed) == \
        (exact.levels, exact.copies, exact.seed)
    assert floated.pair.space_dim == exact.pair.space_dim
    assert np.array_equal(floated.pair.contraction, exact.pair.contraction)


def test_levels_smoke_fixture_passes_its_gates():
    # the three-level tower the CI smoke step extends, and its reseeded copy
    # that the CI compare step certifies equivalent to it
    fixtures = Path(__file__).parent / "fixtures"
    for name, seed in (("tower-levels.json", 0), ("tower-levels-reseeded.json", 1)):
        sc = load_scenario(str(fixtures / name))
        assert (sc.levels, sc.copies, sc.pair.space_dim, sc.seed) == (3, 2, 8, seed)
    raw = [json.loads((fixtures / name).read_text())
           for name in ("tower-levels.json", "tower-levels-reseeded.json")]
    assert {**raw[1], "seed": 0} == raw[0]


def test_cli_byte_identical_reports(tmp_path):
    good = write(tmp_path, "good.json", demo_fixture("tower"))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["extend", "--scenario", good, "--out", str(out1)]) == 0
    assert main(["extend", "--scenario", good, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_overrides(tmp_path):
    good = write(tmp_path, "good.json", demo_fixture("scalar"))
    out = tmp_path / "r.json"
    assert main(["extend", "--scenario", good, "--levels", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scenario"]["levels"] == 2
    assert len(report["dimensions"]["blocks"]) == 3


def test_cli_overrides_reach_both_compare_scenarios(tmp_path):
    # --levels applies to --other too, so two three-level fixtures compare
    # as two-level chains instead of failing on unequal levels
    fixtures = Path(__file__).parent / "fixtures"
    out = tmp_path / "r.json"
    assert main(["compare", "--scenario", str(fixtures / "tower-levels.json"),
                 "--other", str(fixtures / "tower-levels-reseeded.json"),
                 "--levels", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["chains"]["verdict"] == "equivalent"
    assert len(report["dimensions"]["first_blocks"]) == 3
    assert len(report["dimensions"]["second_blocks"]) == 3


def test_every_clause_has_residual_and_nothing_silent():
    for name in DEMO_NAMES:
        sc = build_scenario(demo_fixture(name))
        for command in ("check", "extend", "dilate", "unitary", "matricial"):
            report = run(sc, command)
            assert report["clauses"], (name, command)
            for cl in report["clauses"]:
                assert isinstance(cl["residual"], float)
                assert isinstance(cl["threshold"], float)
                assert isinstance(cl["passed"], bool)
            assert report["passed"], (name, command)


def test_report_rendering_is_sorted_json():
    sc = build_scenario(demo_fixture("scalar"))
    report = run(sc, "check")
    text = render_report(report)
    parsed = json.loads(text)
    assert parsed == json.loads(render_report(parsed))
    assert text.endswith("\n")


def test_timing_flag_adds_field():
    sc = build_scenario(demo_fixture("scalar"))
    assert "timing_ms" not in run(sc, "check")
    assert "timing_ms" in run(sc, "check", with_timing=True)


def test_overrides_build_each_scenario_once(tmp_path, monkeypatch):
    # the overrides go into the parsed JSON before the one build, so each
    # scenario's load gates (pair/covariance among them) run once
    calls = []
    real = covariant._covariance
    monkeypatch.setattr(covariant, "_covariance",
                        lambda *args: calls.append(1) or real(*args))
    fixtures = Path(__file__).parent / "fixtures"
    assert main(["compare", "--scenario", str(fixtures / "tower-levels.json"),
                 "--other", str(fixtures / "tower-levels-reseeded.json"),
                 "--levels", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("content, override, message", [
    ("{not json", ["--levels", "2"], "invalid JSON at line 1, column 2"),
    ("[1, 2]", ["--levels", "2"], "scenario must be a JSON object"),
    (None, ["--levels", "0"], "levels and copies must be >= 1"),
    (None, ["--copies", "2"], "copies 2 exceed check depth 1"),
    (None, ["--seed", "-2"], "seed must be >= 0, got -2"),
])
def test_override_errors_keep_their_class_message_and_exit_code(tmp_path, capsys, content,
                                                                 override, message):
    path = tmp_path / "s.json"
    path.write_text(content if content is not None else json.dumps(demo_fixture("tower")))
    assert main(["extend", "--scenario", str(path)] + override) == 2
    assert message in capsys.readouterr().err


def _oracle(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(codec=None, exclude_categories=())))
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(st.characters(exclude_categories=()), max_size=6), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@example({"": {}, "a": [], "b": [[], {}], "c": [-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                                              1.7976931348623157e308, 1e22, 1e-7, 1e16]})
@example({"\x00\x1f\x7f": "\u00e9\u2028\ud800\U0001f600\n\t\"\\", "n": [12345678901234567890]})
@example({"x": [float("nan"), float("inf"), -float("inf")], "y": (1, True, None)})
@given(report=st.dictionaries(st.text(max_size=6), _REPORTS, max_size=5))
def test_report_emitter_is_json_dumps_byte_for_byte(report):
    assert render_report(report) == _oracle(report)


@pytest.mark.parametrize("value", [{1: 0}, {(1,): 0}, {"a": {None: 1}}, {"a": {1, 2}},
                                   {"a": b"x"}, {"a": np.int64(3)}, {"a": object()}])
def test_report_emitter_rejects_what_json_writes_differently(value):
    with pytest.raises(TypeError):
        render_report(value)


def test_report_emitter_on_the_demo_and_the_levels_fixture():
    fixtures = Path(__file__).parent / "fixtures"
    levels = load_scenario(str(fixtures / "tower-levels.json"))
    reports = [run(levels, "check"), run(levels, "dilate")]
    for name in DEMO_NAMES:
        sc = build_scenario(demo_fixture(name))
        reports += [run(sc, command, with_timing=True)
                    for command in ("check", "extend", "dilate", "unitary", "matricial")]
    for report in reports:
        assert render_report(report) == _oracle(report)
