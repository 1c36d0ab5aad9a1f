"""covdilate benchmark: drive seeded report workloads through ``cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload tower-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: passes over
the workload's op list, repeated until ``--seconds`` have elapsed (at least
one pass), and set-up time, the median of fresh processes that each import
the package and load and gate every scenario. Half of those probes run
before the passes and half after, so that the median spans the whole run.
``--trace 1`` first checks the first op through the real command line in a
subprocess, then runs one untraced pass, then rebuilds the scenarios and
runs one pass under the per-layer tracer; both passes run each op once.
Every op of every pass goes through the correctness gate as soon as it
returns; only its latency, report digest and problems are kept.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller results
file, with the environment stamp and the per-op digests, is written to
``perfbench/results/``. The exit code is 2, with no result, when no
package source is found under ``./src``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import gate
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up probes, once before the passes and once after: at least this many,
# and more until this many seconds are spent
SETUP_REPEATS = 2
SETUP_MIN_S = 2.0
SUBPROCESS_TIMEOUT_S = 120
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "report_p50_ms": "ms",
                    "report_p90_ms": "ms", "peak_rss_mib": "MiB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "covdilate", "__init__.py")):
        sys.stderr.write("perfbench: no package source at ./src/covdilate; "
                         "run from the repository root\n")
        return 2

    wl = workloads.build(args.workload, args.seed)
    reference = gate.load_reference(wl.name)
    paths = _write_scenarios(wl, os.path.join(HERE, ".work", f"{wl.name}-{wl.seed}"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    setup_samples = [] if args.trace else _setup_probes(root, env, list(paths.values()))

    sys.path.insert(0, src)
    import covdilate
    from covdilate import cli, scenario
    if not os.path.abspath(covdilate.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported covdilate from {covdilate.__file__}, "
                         f"not from {src}\n")
        return 2
    built = {name: scenario.build_scenario(data) for name, data in wl.scenarios.items()}

    passes = []
    crosscheck = None
    overhead = None
    if args.trace:
        # first, so that the subprocess gets its whole timeout however slow the passes are
        crosscheck = _cross_check(root, env, wl.ops[0], paths)
        # each op once, so that the layer counts are those of one pass over the op list
        once = [dataclasses.replace(op, repeat=1) for op in wl.ops]
        passes.append(_run_pass(cli, built, once, reference))
        with tracer.Tracer() as tr:
            built = {name: scenario.build_scenario(data) for name, data in wl.scenarios.items()}
            passes.append(_run_pass(cli, built, once, reference))
        overhead = (passes[1][0] - passes[0][0]) / passes[0][0]
        crosscheck = _judge_cross_check(crosscheck, passes[0][1][0])
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(_run_pass(cli, built, wl.ops, reference))
        setup_samples += _setup_probes(root, env, list(paths.values()))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops_out, attempted, failed = _collect(wl.ops, passes)
    correct = failed == 0 and (crosscheck is None or crosscheck["outcome"] == "match")

    latencies = sorted(rec[0] for _, records in passes for rec in records)
    if args.trace:
        metrics = {name: {"value": value, "unit": tracer.unit(name)}
                   for name, value in tr.metrics(overhead).items()}
    else:
        values = {"wall_s": statistics.median(wall for wall, _ in passes),
                  "setup_s": statistics.median(setup_samples),
                  "report_p50_ms": 1000.0 * statistics.median(latencies),
                  "report_p90_ms": 1000.0 * _nearest_rank(latencies, 0.9),
                  "peak_rss_mib": peak_rss_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    results = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": _environment(root, args.seed, overhead),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "pass_walls_s": [wall for wall, _ in passes],
        "report_latency_samples": len(latencies),
        "setup_samples_s": setup_samples,
        "crosscheck": crosscheck,
        "ops": ops_out,
    }
    if args.trace:
        results["errors_raised"] = dict(tr.errors)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")

    sys.stderr.write(f"perfbench: {wl.name} seed {args.seed}: {len(passes)} pass(es), "
                     f"{failed}/{attempted} failed; results in {os.path.relpath(out_path)}\n")
    if crosscheck is not None:
        sys.stderr.write(f"perfbench: cross-check of {crosscheck['op']}: {crosscheck['outcome']}"
                         + "".join(f"; {p}" for p in crosscheck["problems"]) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_scenarios(wl: workloads.Workload, directory: str) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, data in wl.scenarios.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return paths


def _setup_probes(root: str, env: dict, scenario_paths: list) -> list:
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               *scenario_paths], cwd=root, env=env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _run_pass(cli, built: dict, ops, reference: dict) -> tuple:
    """Run and gate every op; return (wall seconds, [(seconds, sha256, passed, problems)]).

    The pass goes in rounds: round r runs, in list order, every op whose
    ``repeat`` exceeds r, so the repetitions of an op are spread over the
    pass rather than run back to back. An op's latency is the median of its
    repetitions, and each repetition is gated and must render the same bytes.
    The pass's wall time is the sum of its ops' latencies, so the gate's
    bookkeeping between ops is not counted. Reports are dropped once gated,
    so the memory a run retains does not grow with its number of passes.
    """
    runs = [[] for _ in ops]
    for r in range(max(op.repeat for op in ops)):
        for op, op_runs in zip(ops, runs):
            if r < op.repeat:
                op_runs.append(_run_op(cli, built, op, reference.get(op.id)))
    records = []
    for op_runs in runs:
        digests = {digest for _, digest, _, _ in op_runs}
        problems = sorted({msg for *_, p in op_runs for msg in p})
        if len(digests) > 1:
            problems.append("report bytes differ between repetitions")
        _, digest, passed, _ = op_runs[0]
        records.append((statistics.median(seconds for seconds, *_ in op_runs),
                        digest, passed, problems))
    return sum(rec[0] for rec in records), records


def _run_op(cli, built: dict, op, expected) -> tuple:
    t0 = time.perf_counter()
    try:
        report = cli.run(built[op.scenario], op.command, built.get(op.other))
        text = cli.render_report(report)
        error = None
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        report, text, error = None, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return (seconds, None if text is None else gate.digest(text),
            None if report is None else report["passed"], gate.check(expected, report, error))


def _collect(ops, passes):
    """Per-op results over the passes; an op must also render the same bytes in each pass."""
    out = []
    failed = 0
    for i, op in enumerate(ops):
        runs = [records[i] for _, records in passes]
        problems = [list(p) for _, _, _, p in runs]
        if len({digest for _, digest, _, _ in runs}) > 1:
            problems = [p + ["report bytes differ between passes"] for p in problems]
        failed += sum(1 for p in problems if p)
        out.append({"id": op.id, "command": op.command,
                    "latency_ms": [1000.0 * seconds for seconds, _, _, _ in runs],
                    "sha256": runs[0][1],
                    "problems": sorted({msg for p in problems for msg in p})})
    return out, len(ops) * len(passes), failed


def _cross_check(root: str, env: dict, op, paths: dict) -> dict:
    """Run ``op`` through ``python -m covdilate``; keep its exit code and report digest."""
    cmd = [sys.executable, "-m", "covdilate", op.command, "--scenario", paths[op.scenario]]
    if op.other is not None:
        cmd += ["--other", paths[op.other]]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"op": op.id, "outcome": "timeout",
                "problems": [f"no result within {SUBPROCESS_TIMEOUT_S} s; nothing compared"]}
    return {"op": op.id, "exit_code": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def _judge_cross_check(check: dict, record) -> dict:
    """Compare a cross-check with the in-process record of the same op.

    The outcome is ``match``, ``mismatch`` (exit code or report bytes differ,
    or the op raised in-process) or ``timeout`` (the subprocess gave no
    result, so nothing was compared).
    """
    if check.get("outcome") == "timeout":
        return check
    _, digest, passed, _ = record
    expected_code = 0 if passed else 1
    problems = []
    if passed is None:
        problems.append("the op raised in-process")
    if check["exit_code"] != expected_code:
        problems.append(f"exit code {check['exit_code']}, expected {expected_code}")
    if check["sha256"] != digest:
        problems.append("report bytes differ from the in-process report")
    return dict(check, expected_exit_code=expected_code,
                outcome="mismatch" if problems else "match", problems=problems)


def _nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _environment(root: str, seed: int, overhead) -> dict:
    threads, how = _openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_threads": threads,
        "openblas_threads_read_by": how,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(os.path.join(root, "src", "covdilate")),
        "seed": seed,
        "trace_overhead_frac": overhead,
        "trace_overhead_note": None if overhead is not None
        else "measured only by --trace 1 runs",
    }


def _openblas_threads():
    """Ask the loaded OpenBLAS itself, through ctypes (threadpoolctl is not installed)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn()), f"ctypes {symbol}() in {os.path.basename(lib)}"
    return None, "no loaded OpenBLAS library found in /proc/self/maps"


def _git_commit(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode("utf-8"))
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
