"""The same outputs: every command's bytes on fixed trees, pinned by digest.

`check`, `classify`, `compile` and `test` run in-process on the bundled pizza
and on the three trees `bench/gen.py` builds at seed 7. For each run the
exit code and the sha256 of its stdout and stderr are recorded, and for
`compile` the sha256 of each file written. Paths are relative to a scratch
directory, so no digest holds a temporary path. The test runs the recorder
in two fresh processes, at `PYTHONHASHSEED` 0 and 123, and compares both with
`tests/data/outputs.sha256`.

A change meant to alter an output rewrites the file, and says why:

    PYTHONPATH=src python tests/test_outputs.py > tests/data/outputs.sha256
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import ontoforge
from ontoforge import cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "outputs.sha256"
COMMANDS = ("check", "classify", "compile", "test")
SEED = 7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trees(work: Path) -> list[tuple[str, str]]:
    """Write the pizza and the bench trees under work; (directory, namespace) each."""
    sys.path.insert(0, str(ROOT / "bench"))  # only in the recording process
    import gen

    shutil.copytree(Path(ontoforge.__file__).parent / "bundled", work / "pizza")
    trees = [("pizza", "pizza")]
    for name, build in sorted(gen.WORKLOADS.items()):
        tree = build(SEED)
        tree.write(work / name)
        trees.append((name, tree.ns))
    return trees


def record() -> list[str]:
    """One line per exit code and digest, as `<value>  <tree>:<command>:<part>`."""
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name, ns in _trees(Path(".")):
            for command in COMMANDS:
                out = Path("out") / name
                argv = [command, "--src", name, "--ns", ns]
                argv += ["--out", str(out)] if command == "compile" else []
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                where = f"{name}:{command}"
                lines.append(f"{code}  {where}:exit")
                lines.append(f"{_sha(stdout.getvalue().encode())}  {where}:stdout")
                lines.append(f"{_sha(stderr.getvalue().encode())}  {where}:stderr")
                if command == "compile":
                    for path in sorted(out.iterdir()):
                        lines.append(f"{_sha(path.read_bytes())}  {where}:{path.name}")
        os.chdir(ROOT)
    return lines


def test_outputs_match_the_pinned_digests_at_two_hash_seeds():
    env = {k: v for k, v in os.environ.items() if k != "ONTOFORGE_COLOR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    runs = {
        seed: subprocess.Popen(
            [sys.executable, __file__],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "123")
    }
    done = {seed: (proc.communicate(timeout=120), proc.returncode) for seed, proc in runs.items()}
    want = PINNED.read_text(encoding="utf-8")
    for seed, ((out, err), code) in done.items():
        assert code == 0, err
        assert out == want, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    print("\n".join(record()))
