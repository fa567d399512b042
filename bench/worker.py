"""One workload in one fresh process: set up, run the CLI in cycles, check.

Started by run.py, never by hand. It prints `ready` once ontoforge is
imported and the generated tree is on disk (run.py times set-up up to that
line), then runs the commands of COMMANDS in order, one cycle after another,
each an in-process `ontoforge.cli.main(argv)` call, until the next cycle
would overrun its budget. It always runs at least one cycle. The last line
it prints is a JSON report.

Only the `cli.main` call is timed. Before each call the worker collects
garbage and times the reference computation (`gen.Reference`), and times it
again after the call; output checks, hashing and span handling happen
between calls.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

COMMANDS = ("check", "classify", "compile", "test")


def _import_cli():
    from ontoforge import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ontoforge imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts commands that failed and outputs that differ from expectations."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.mismatches = 0
        self.notes: list[str] = []

    def note(self, n: int, what: str) -> None:
        if n:
            self.mismatches += n
            if len(self.notes) < 20:
                self.notes.append(what)

    def command(self, cmd: str, rc: int, stdout: str, want_rc: int, want: str) -> None:
        self.ops += 1
        bad_lines = 0
        if stdout != want:
            bad_lines = max(1, len(set(stdout.splitlines()) ^ set(want.splitlines())))
            self.note(bad_lines, f"{cmd}: {bad_lines} stdout lines differ")
        if rc != want_rc:
            self.notes.append(f"{cmd}: exit {rc}, expected {want_rc}")
        if rc != want_rc or bad_lines:
            self.failed += 1


def library_checks(tree, src: Path, out: Path, check: Checker) -> None:
    """Checks that need the library rather than the CLI, run once per process."""
    from ontoforge.evaluator import Loader
    from ontoforge.importer import parse_functional
    from ontoforge.model import IRI, Entity, Kind, Named, SubClassOf

    env = Loader(src).load(tree.ns)
    stem = tree.ns.rpartition(".")[2]
    compiled = parse_functional((out / f"{stem}.ofn").read_text(encoding="utf-8"))
    check.note(
        len(set(compiled.axioms) ^ set(env.ontology.axioms)),
        "compiled .ofn does not parse back to the environment's axioms",
    )
    if tree.external_file:
        wrong = sum(
            1
            for ident, iri in tree.interned.items()
            if env.bindings.get(ident) != Entity(Kind.CLASS, IRI(iri))
        )
        check.note(wrong, f"{wrong} labels interned to the wrong identifier")
        external = parse_functional((src / tree.external_file).read_text(encoding="utf-8"))
        parents = {
            (ax.sub.entity.iri.value, ax.sup.entity.iri.value)
            for ax in external.axioms
            if isinstance(ax, SubClassOf) and isinstance(ax.sub, Named) and isinstance(ax.sup, Named)
        }
        check.note(len(parents ^ tree.external_parents), "external parent edges differ")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    cli = _import_cli()
    import gen

    tree = gen.WORKLOADS[args.workload](args.seed)
    src, out = args.work / "src", args.work / "out"
    tree.write(src)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    expected = tree.expected(src, out, tree.hierarchy.close())
    reference = gen.Reference()
    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    check = Checker()
    times: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    ref_times: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    digests: list[dict[str, str]] = []
    layers: list[dict] = []
    start = time.perf_counter()
    last_cycle = 0.0
    while not digests or time.perf_counter() - start + last_cycle <= args.budget:
        cycle_start = time.perf_counter()
        digest = {}
        for cmd in COMMANDS:
            argv, want_rc, want = expected[cmd]
            # Each CLI run starts with a fresh heap: collect what the previous
            # command left behind, so its collection is not billed here.
            gc.collect()
            ref_before = reference()
            sink_out, sink_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, argv)
                dt = time.perf_counter() - t0
            ref_times[cmd].append((ref_before + reference()) / 2)
            times[cmd].append(dt)
            stdout = sink_out.getvalue()
            check.command(cmd, rc, stdout, want_rc, want)
            digest[cmd] = _sha(stdout.encode("utf-8"))
            if cmd == "compile":
                for path in sorted(out.iterdir()):
                    digest[path.name] = _sha(path.read_bytes())
        digests.append(digest)
        if tracer is not None:
            batch, counts = tracer.take()
            layers.append(spans.layer_metrics(batch, counts))
            if args.spans:
                spans.write_spans(batch, args.spans)
            del batch
        last_cycle = time.perf_counter() - cycle_start

    if args.verify:
        library_checks(tree, src, out, check)
    report = {
        "times": times,
        "ref_times": ref_times,
        "digests": digests,
        "layers": layers,
        "ops": check.ops,
        "failed": check.failed,
        "mismatches": check.mismatches,
        "notes": check.notes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
