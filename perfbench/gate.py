"""Per-op correctness gate and the stored references it compares against.

An op passes when it returns a report whose ``passed`` is true and whose
structure (dimensions, clause names with their pass flags, equivalence
verdicts) equals the reference stored for its workload. Residual values are
left out of the comparison: a faster numerical route may move them by
round-off without weakening any clause. The sha256 of the rendered report is
recorded for every op, so two runs of the same code can be compared for byte
identity.

The references live in ``reference/<workload>.json``. Because a workload's
structure does not depend on the seed (see ``workloads``), one reference per
workload, written at seed 0, serves every seed. Regenerate one, from the
repository root, with

    python3 perfbench/gate.py --workload tower-wide
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(report: dict) -> dict:
    """The seed-independent structure of a report that the gate compares."""
    return {
        "command": report["command"],
        "dimensions": report["dimensions"],
        "clauses": [[c["name"], c["passed"]] for c in report["clauses"]],
        "verdicts": {k: v["verdict"] for k, v in report.get("verdicts", {}).items()},
    }


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def check(expected: dict | None, report: dict | None, error: str | None) -> list[str]:
    """Problems with one op's outcome; an empty list means the op passed."""
    if error is not None:
        return [f"raised {error}"]
    problems = []
    if report["passed"] is not True:
        problems.append("report not passed")
    if expected is None:
        problems.append("no stored reference for this op")
    else:
        got = summarize(report)
        problems += [f"{key} differs from the reference" for key in expected
                     if got[key] != expected[key]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the stored reference of a workload")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from covdilate import cli, scenario
    import workloads

    wl = workloads.build(args.workload, REFERENCE_SEED)
    built = {name: scenario.build_scenario(data) for name, data in wl.scenarios.items()}
    ops = {}
    for op in wl.ops:
        report = cli.run(built[op.scenario], op.command, built.get(op.other))
        if not report["passed"]:
            sys.stderr.write(f"{op.id}: report not passed; no reference written\n")
            return 1
        ops[op.id] = summarize(report)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "written_with_seed": REFERENCE_SEED, "ops": ops},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ops)} op references to {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
