"""The ontoforge benchmark: three seeded workloads through the real CLI.

    python3 bench/run.py --workload build-dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload runs in fresh worker processes (bench/worker.py), one after
another, so at most one core is busy. A run starts SETUP_ONLY workers that
only set up, which give the set-up time, then measuring workers that share
what is left of the run's seconds; each runs at least one cycle of check,
classify, compile and test.

With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of traced cycles and the
tracing overhead against untraced cycles of the same run. bench/README.md
says what each metric means and which workload should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("ingest-forest", "build-dense", "probe-suite")
COMMANDS = ("check", "classify", "compile", "test")
SETUP_ONLY = 11
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
from gen import Reference  # noqa: E402
from spans import COUNT_METRICS, SPAN_METRICS  # noqa: E402

COUNT_KEYS = {m for m, (_, kind) in SPAN_METRICS.items() if kind == "calls"} | set(COUNT_METRICS)


class BenchError(Exception):
    pass


def _child(args, work: Path, hash_seed: int, deadline: float) -> tuple[float, dict | None]:
    """Run one worker in a fresh tree directory; return its set-up time and report.

    Every worker of a run writes its tree to the same path, so that paths in
    the CLI's output, and thus output digests, agree between workers.
    """
    shutil.rmtree(work, ignore_errors=True)
    # PYTHONHASHSEED must lie in [0, 2**32); any --seed, negative or huge, maps there.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--work", str(work)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("a worker overran the run's deadline")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"a worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _at_nominal_speed(walls, refs) -> list[float]:
    return [w * Reference.NOMINAL_S / r for w, r in zip(walls, refs)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    span_file = BENCH / "_work" / f"spans-{workload}-{seed}.tsv"
    if trace:
        span_file.unlink(missing_ok=True)
        # traced, untraced, traced: counts repeat across two processes, and
        # the untraced cycles give the overhead baseline.
        plans = [(True, 1 / 2), (False, 1 / 4), (True, 1 / 4)]
    else:
        plans = [(False, 1 / 2), (False, 1 / 2)]
    reference = Reference()
    setups: list[float] = []
    setup_refs: list[float] = []
    reports: list[tuple[bool, dict]] = []
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        for k in range(SETUP_ONLY):
            before = reference()
            setups.append(_child(base + ["--setup-only"], work, seed * 16 + k, deadline)[0])
            setup_refs.append((before + reference()) / 2)
        left = max(0.0, seconds - (time.perf_counter() - started))
        for k, (traced, share) in enumerate(plans):
            argv = base + ["--budget", repr(share * left)]
            if k == 0:
                argv.append("--verify")
            if traced:
                argv += ["--traced", "--spans", str(span_file)]
            _, report = _child(argv, work, seed * 16 + SETUP_ONLY + k, deadline)
            reports.append((traced, report))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = sum(r["ops"] for _, r in reports)
    failed = sum(r["failed"] for _, r in reports)
    mismatches = sum(r["mismatches"] for _, r in reports)
    notes = [n for _, r in reports for n in r["notes"]]

    # Determinism: stdout and compiled files hash alike in every cycle of
    # every worker, and traced counts repeat exactly.
    digests = [d for _, r in reports for d in r["digests"]]
    for key in digests[0]:
        differing = sum(1 for d in digests if d.get(key) != digests[0][key])
        if differing:
            mismatches += differing
            notes.append(f"{key}: output differs between cycles at one seed")
    layers = [layer for _, r in reports for layer in r["layers"]]
    for key in sorted(COUNT_KEYS):
        if len({layer[key] for layer in layers}) > 1:
            mismatches += 1
            notes.append(f"{key}: count differs between traced cycles at one seed")

    plain = [r for traced, r in reports if not traced]
    walls = {f"{c}_s": [t for r in plain for t in r["times"][c]] for c in COMMANDS}
    refs = {f"{c}_s": [t for r in plain for t in r["ref_times"][c]] for c in COMMANDS}
    walls["setup_s"], refs["setup_s"] = setups, setup_refs
    scaled = {name: _at_nominal_speed(walls[name], refs[name]) for name in walls}
    end_to_end = {name: (statistics.median(v), "s") for name, v in scaled.items()}
    end_to_end["peak_rss_mb"] = (max(r["rss_kb"] for r in plain) / 1024, "MB")
    result = {
        "workload": workload,
        "ops": ops,
        "failed": failed,
        "mismatches": mismatches,
        "notes": notes,
        "end_to_end": end_to_end,
        "wall_medians": {name: statistics.median(v) for name, v in walls.items()},
        "samples": {name: len(v) for name, v in walls.items()},
    }
    if trace:
        metrics = {}
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            metrics[key] = values[0] if key in COUNT_KEYS else statistics.median(values)

        def cycle_totals(rs):
            """Each cycle's total command time, at nominal machine speed."""
            return [
                sum(_at_nominal_speed(cycle_walls, cycle_refs))
                for r in rs
                for cycle_walls, cycle_refs in zip(
                    zip(*(r["times"][c] for c in COMMANDS)),
                    zip(*(r["ref_times"][c] for c in COMMANDS)),
                )
            ]

        traced_cycles = cycle_totals(r for traced, r in reports if traced)
        metrics["trace.overhead_s"] = statistics.median(traced_cycles) - statistics.median(
            cycle_totals(plain)
        )
        result["per_layer"] = metrics
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {n: {"value": v, "unit": _unit(n)} for n, v in result["per_layer"].items()}
    return {n: {"value": v, "unit": u} for n, (v, u) in result["end_to_end"].items()}


def _report(res: dict, seed: int, trace: bool) -> None:
    print(f"# {res['workload']} seed={seed}")
    if trace:
        for name, value in res["per_layer"].items():
            print(f"{name:28s} {value!r:>24} {_unit(name)}")
    else:
        for name, (value, unit) in res["end_to_end"].items():
            extra = ""
            if name in res["wall_medians"]:
                extra = f"  (wall median {res['wall_medians'][name]:.4f} s, n={res['samples'][name]})"
            print(f"{name:28s} {value:14.6f} {unit:5s}{extra}")
    print(f"{'ops':28s} {res['ops']:14d} count")
    print(f"{'op_failure_rate':28s} {res['failed'] / res['ops']:14.6f} 1")
    print(f"{'output_mismatches':28s} {res['mismatches']:14d} count")
    for note in res["notes"]:
        print(f"#   {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    if not (ROOT / "src" / "ontoforge" / "__init__.py").is_file():
        print(f"bench: no ontoforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    for res in results:
        _report(res, args.seed, trace)
    if len(results) == 1:
        metrics = _metrics(results[0], trace)
    else:
        metrics = {
            f"{res['workload']}.{name}": value
            for res in results
            for name, value in _metrics(res, trace).items()
        }
    summary = {
        "correct": all(r["failed"] == 0 and r["mismatches"] == 0 for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
