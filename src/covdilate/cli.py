"""Command-line front end: run constructions, emit machine-readable reports.

Subcommands map to the construction pipelines: ``check`` verifies the
scenario's gates and identities, ``extend`` builds the coisometric
extension, ``dilate`` the isometric dilation, ``unitary`` the composed
unitary dilation, ``matricial`` the two-sided block form (certified
against the composed route), ``compare`` certifies equivalence or produces
a witness for two scenarios, and ``demo`` runs the built-in fixtures.

Reports are JSON with sorted keys and no timestamps, so identical
(scenario, seed, version) inputs produce byte-identical output; timing is
attached only on request.  Exit codes: 0 all clauses pass, 1 a clause
failed, 2 validation error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import verify_endomorphism, verify_star_hom
from .covariant import defect_operators, stage_view, verify_covariance, verify_strategy
from .dilation import (explicit_matricial_unitary, schaffer_dilate,
                       unitary_dilate, verify_isometric_dilation)
from .equivalence import chain_intertwiner, dilation_intertwiner
from .errors import (ScenarioParseError, ScenarioValidationError,
                     WorkbenchError)
from .extension import (coisometric_extend, defect_decomposition,
                        verify_coisometric_extension)
from .numerics import certified, keep_sweep_memory
from .report import ClauseReport, clause
from .scenario import (DEMO_NAMES, Scenario, build_scenario, demo_fixture,
                       read_scenario)
from .tower import alpha_hom

EXIT_PASS = 0
EXIT_CLAUSE_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def _base_report(scenario: Scenario, command: str) -> dict:
    return {
        "schema": 1,
        "tool": "covdilate",
        "version": __version__,
        "command": command,
        "scenario": scenario.echo(),
    }


def _check_clauses(scenario: Scenario) -> ClauseReport:
    rep = ClauseReport()
    tol = scenario.tol
    pair = scenario.pair
    system = scenario.system
    t_depth = system.stinespring_depth(pair.depth)
    if scenario.backend == "finite-dim":
        endo = verify_endomorphism(system.alpha, tol)
        rep.extend(endo.hom.clauses("dynamics"))
        rep.add(clause("dynamics/injective", "alpha has full coordinate rank",
                       0.0 if endo.injective else 1.0, 0.5,
                       note=endo.note))
        rep.extend(pair.rep.verify(tol).clauses("representation"))
    else:
        # certified once, held by the rep and the system
        depth = max(pair.depth, 1)
        held = certified(pair.rep, ("stage-view", depth, tol),
                         lambda: stage_view(system, pair.rep, depth).verify(tol))
        rep.extend(held.clauses("representation"))
        held = certified(system, ("stage-map", t_depth - 1, tol),
                         lambda: verify_star_hom(alpha_hom(system.tower, t_depth - 1), tol))
        rep.extend(held.clauses("dynamics"))
    rep.extend(verify_strategy(system, scenario.strategy, t_depth, tol))
    rep.add(clause("pair/contraction", "||T|| <= 1",
                   max(0.0, pair.norm() - 1.0), tol.rank_eps))
    rep.add(clause("pair/covariance", "T pi(alpha(a)) = pi(a) T",
                   verify_covariance(pair, tol), tol.residual_tol))
    defect = defect_operators(pair, tol)
    rep.add(clause("pair/defect-star-commutes", "[(I-TT*)^1/2, pi(a)] = 0",
                   defect.pi_commutation, tol.residual_tol))
    rep.add(clause("pair/defect-commutes", "[(I-T*T)^1/2, pi(alpha(a))] = 0",
                   defect.pi_alpha_commutation, tol.residual_tol))
    return rep


def run(scenario: Scenario, command: str, other: Scenario | None = None,
        with_timing: bool = False) -> dict:
    """Execute one command pipeline and return the report dictionary."""
    keep_sweep_memory()
    t0 = time.perf_counter()
    report = _base_report(scenario, command)
    clauses = ClauseReport()
    dims: dict = {"space": scenario.pair.space_dim}
    verdicts: dict = {}
    tol = scenario.tol

    if command == "check":
        clauses.extend(_check_clauses(scenario))
    elif command == "extend":
        chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                                   tol, scenario.seed)
        clauses.extend(verify_coisometric_extension(chain, tol))
        dd = defect_decomposition(chain, tol)
        clauses.extend(dd.report)
        dims["blocks"] = dict(zip(chain.block_names, chain.block_dims))
        dims["defect_space"] = dd.dv_dim
    elif command == "dilate":
        rec = schaffer_dilate(scenario.pair, scenario.copies, tol)
        clauses.extend(verify_isometric_dilation(rec, tol=tol))
        dims["blocks"] = dict(zip(rec.block_names, rec.block_dims))
    elif command == "unitary":
        rec = unitary_dilate(scenario.pair, scenario.levels, scenario.copies,
                             scenario.strategy, tol, scenario.seed)
        clauses.extend(verify_isometric_dilation(rec, tol=tol))
        clauses.extend(rec.report)
        dims["blocks"] = dict(zip(rec.block_names, rec.block_dims))
        dims["index_table"] = rec.index_table()
    elif command == "matricial":
        chain = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                                   tol, scenario.seed)
        rec = explicit_matricial_unitary(chain, scenario.copies, tol)
        clauses.extend(rec.report)
        composed = schaffer_dilate(chain.as_pair(), scenario.copies, tol)
        cert = dilation_intertwiner(composed, rec, tol)
        verdicts["matricial-vs-composed"] = cert.as_dict()
        clauses.add(clause("matricial/equivalent-to-composed",
                           "intertwiner between the two-sided form and the composed route",
                           cert.max_residual if cert.verdict == "equivalent" else 1.0,
                           cert.threshold, note=cert.verdict))
        dims["blocks"] = dict(zip(rec.block_names, rec.block_dims))
        dims["index_table"] = rec.index_table()
    elif command == "compare":
        if other is None:
            raise ScenarioValidationError("schema", "compare needs a second scenario")
        if other.tol != tol:
            # both chains are certified at one tolerance, so they must share it
            raise ScenarioValidationError(
                "tolerance", f"compare needs equal tolerances, got {tol} and {other.tol}")
        chain1 = coisometric_extend(scenario.pair, scenario.levels, scenario.strategy,
                                    tol, scenario.seed)
        chain2 = coisometric_extend(other.pair, other.levels, other.strategy,
                                    other.tol, other.seed)
        cert = chain_intertwiner(chain1, chain2, tol)
        verdicts["chains"] = cert.as_dict()
        expected_distinct = cert.verdict == "inequivalent"
        clauses.add(clause("compare/verdict",
                           "chain intertwiner fixing H pointwise",
                           0.0 if cert.verdict in ("equivalent", "inequivalent") else 1.0,
                           0.5, note=cert.verdict))
        if cert.verdict == "equivalent":
            clauses.add(clause("compare/intertwiner-unitary", "u* u = I",
                               cert.residuals.get("unitarity_left", 0.0),
                               cert.threshold))
        if expected_distinct:
            report.setdefault("notes", []).append(
                "witness Gram mismatch recomputed from the defining map data")
        dims["first_blocks"] = dict(zip(chain1.block_names, chain1.block_dims))
        dims["second_blocks"] = dict(zip(chain2.block_names, chain2.block_dims))
    else:
        raise ScenarioValidationError("schema", f"unknown command {command!r}")

    report["dimensions"] = dims
    if verdicts:
        report["verdicts"] = verdicts
    out = clauses.as_dict()
    report["clauses"] = out["clauses"]
    report["notes"] = sorted(set(out.get("notes", []) + report.get("notes", [])))
    report["passed"] = out["passed"]
    if with_timing:
        report["timing_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
    return report


def render_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)`` and a newline, byte
    for byte, in one recursive pass instead of json's pure-Python indent
    encoder (:func:`_encode`)."""
    out: list = []
    _encode(report, "\n", out)
    out.append("\n")
    return "".join(out)


_FLOAT_WORDS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _encode(value, newline: str, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``, as json's encoder
    writes it with ``sort_keys=True, indent=2``; ``newline`` is the line
    break and indent of the value's own line.

    Strings go through ``encode_basestring_ascii``, ints and floats through
    their ``__repr__`` (NaN and the infinities as json spells them), and
    empty containers print as ``{}`` and ``[]``.  Anything json would write
    differently (a key that is not a string) or not at all (any other type)
    raises TypeError.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value)
                   else _FLOAT_WORDS.get(value, "NaN"))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be strings")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, out_path: str | None) -> None:
    text = render_report(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_demo(args) -> int:
    names = [args.name] if args.name else list(DEMO_NAMES)
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
    worst = EXIT_PASS
    for name in names:
        data = demo_fixture(name)
        scenario = build_scenario(data, args.tol)
        if args.emit:
            with open(f"{args.emit.rstrip('/')}/{name}-scenario.json", "w",
                      encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True, indent=2)
                fh.write("\n")
        commands = ["check", "extend", "dilate", "unitary", "matricial"]
        for command in commands:
            report = run(scenario, command, with_timing=args.timing)
            status = "pass" if report["passed"] else "FAIL"
            sys.stdout.write(f"{name:14s} {command:10s} {status}\n")
            if args.emit:
                _emit(report, f"{args.emit.rstrip('/')}/{name}-{command}.json")
            if not report["passed"]:
                worst = max(worst, EXIT_CLAUSE_FAILURE)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covdilate",
        description="Numerical workbench for coisometric extensions and unitary "
                    "dilations of covariant representations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("check", "verify the scenario's gates and pair identities"),
        ("extend", "build and verify the coisometric extension"),
        ("dilate", "build and verify the isometric dilation"),
        ("unitary", "compose extension and dilation into a unitary dilation"),
        ("matricial", "assemble the two-sided block form and certify it against "
                      "the composed route"),
        ("compare", "certify equivalence of the chains of two scenarios"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--scenario", required=True, help="path to the scenario JSON")
        if name == "compare":
            p.add_argument("--other", required=True,
                           help="path to the second scenario JSON")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--tol", type=float, help="override the residual tolerance")
        p.add_argument("--levels", type=int, help="override the extension levels")
        p.add_argument("--copies", type=int, help="override the dilation copies")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--timing", action="store_true",
                       help="include timing in the report (breaks byte-identical "
                            "reruns)")
    d = sub.add_parser("demo", help="run the built-in fixtures")
    d.add_argument("--name", choices=DEMO_NAMES, help="run a single fixture")
    d.add_argument("--emit", help="directory for the per-command reports")
    d.add_argument("--tol", type=float, help="override the residual tolerance")
    d.add_argument("--timing", action="store_true")
    return parser


def _load_with_overrides(path: str, args) -> Scenario:
    """The scenario at ``path`` with ``--levels``, ``--copies`` and
    ``--seed`` written into its JSON, built and gated once."""
    data = read_scenario(path)
    if isinstance(data, dict):
        for field in ("levels", "copies", "seed"):
            if getattr(args, field, None) is not None:
                data[field] = getattr(args, field)
    return build_scenario(data, getattr(args, "tol", None))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo(args)
        scenario = _load_with_overrides(args.scenario, args)
        other = None
        if args.command == "compare":
            other = _load_with_overrides(args.other, args)
        report = run(scenario, args.command, other, with_timing=args.timing)
        _emit(report, args.out)
        return EXIT_PASS if report["passed"] else EXIT_CLAUSE_FAILURE
    except (ScenarioParseError, ScenarioValidationError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except WorkbenchError as exc:
        sys.stderr.write(f"construction error ({type(exc).__name__}): {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        sys.stderr.write(f"internal error ({type(exc).__name__}): {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
