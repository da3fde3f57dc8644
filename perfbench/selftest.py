"""Self-test of the benchmark on the smallest inputs the CLI accepts.

Usage: python3 perfbench/selftest.py      (about a minute; bridge dominates)

For every workload of BENCHMARK.json it runs ``run.py --smoke`` untraced and
traced, and requires exit 0, every command matching its reference, and the
result line naming exactly the declared end-to-end or per-layer metrics, each
with its declared unit.  It then requires that a deliberately wrong reference
digest yields ``failed_frac`` above 0 and a non-zero exit, and that a
directory holding only BENCHMARK.json and this directory, with no source to
measure, exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(cwd: Path, argv: list[str]) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            rc, lines = invoke(ROOT, argv)
            result = json.loads(lines[-1]) if lines else {}
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            where = f"{workload['name']} trace={trace}"
            if rc != 0 or not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{where}: exit {rc}, result {lines[-3:]}")
            if printed != declared:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(declared.keys() - printed.keys())}, "
                                f"extra {sorted(printed.keys() - declared.keys())}, "
                                f"units {[(k, printed[k]) for k in declared.keys() & printed.keys() if printed[k] != declared[k]]}")
            print(f"{where}: exit {rc}, {len(printed)} metrics", flush=True)

    wrong = dataclasses.replace(run.SMOKE["search"], expected=("0" * 64,))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "search", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], workloads={"search": wrong})
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    frac = [line for line in lines if "failed_frac=" in line]
    if rc == 0 or result["correct"] or result["failed"] == 0 or not frac \
            or frac[0].endswith("failed_frac=0"):
        problems.append(f"wrong reference digest went unnoticed: exit {rc}, {lines[0]}")
    print(f"wrong reference: exit {rc}, {frac[0] if frac else 'no failed_frac line'}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = invoke(bare, ["--workload", "search", "--seed", "1", "--seconds", "1",
                              "--trace", "0"])
    shutil.rmtree(bare)
    if rc == 0 or lines:
        problems.append(f"without sources: exit {rc}, stdout {lines[-1:]}")
    print(f"without sources: exit {rc}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
