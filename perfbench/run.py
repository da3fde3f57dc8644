"""The trailsum benchmark: user-facing CLI commands, one fresh child per job.

Usage:
    python3 perfbench/run.py --workload {search,witness,bridge} --seed N
                             --seconds S --trace {0,1} [--smoke]

A job is the workload's list of ``trailsum.cli.main`` commands, run in a
fresh interpreter (``child.py``).  Jobs run one after another, a closed loop
from a single client, and the loop starts another job only while the last
job's wall time still fits in ``--seconds``.  Every command's exit code and
stdout are checked against the reference.

``--trace 0`` prints the end-to-end metrics, all measured untraced.  Times
are wall times scaled to a reference machine speed by a probe the parent runs
while each child runs (see PROBE_REF_S); the raw wall times are kept too.
``--trace 1`` runs each job twice, untraced then traced, and prints the
per-layer metrics of the traced runs plus the tracing overhead.  ``--smoke``
swaps in the smallest inputs the CLI accepts (``bridge`` has a fixed size).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw per-job values and the
machine record go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
The exit code is 0 when every command matched the reference, 1 when one
did not, and 2 when the checkout has no ``src/trailsum`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5       # set-up-only children per run, besides each job's own
RUN_LIMIT_S = 170       # every child is killed by then; the run must end by 180 s

# Times are scaled to a reference machine speed.  On a shared host the speed
# of a virtual CPU switches between states up to 1.8x apart for seconds to
# minutes at a time, so one run's wall time mostly says which states it met.
# While a child runs, the parent times a fixed loop every PROBE_EVERY_S
# (PROBE_LOOPS iterations, under 1 ms, 2% of one CPU) and multiplies the
# child's wall times by PROBE_REF_S over the mean probe time.  PROBE_REF_S is
# the typical probe time on the reference machine (2 vCPUs of an Intel Xeon,
# Python 3.11.7), so scaled times there read close to wall times.
PROBE_LOOPS = 4000
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0008

# ``verify --suite bridge`` samples 100 graphs from its seed, and their cost
# differs up to 2.5 times between seeds.  Each bridge job takes the next CLI seed,
# drawn from --seed, whose sampled graphs have a number of edge-distinct walks
# (the nonzero prefix products of s_k, a property of the input alone) inside
# this band around the median over seeds, so every job has the same size.
BRIDGE_WALKS = (570_000, 630_000)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]   # "{graph}" and "{seed}" are filled in
    graph: tuple[int, int] | None           # (n, mbar) of the G_n file written in set-up
    expected: tuple[str, ...] | None        # stdout SHA-256 per command; None: bridge


WORKLOADS = {
    "search": Workload(
        "search", (("exhaustive", "--n", "3", "--k", "6", "--bmax", "2"),), None,
        ("b3f75392cb4af468e96b0517c147f31e36a14025ef7f46a1f1e5e84b385a82c6",)),
    "witness": Workload(
        "witness",
        (("gn", "--n", "5", "--mbar", "3", "--compute"),
         ("gn", "--n", "6", "--mbar", "2", "--compute"),
         ("signed-sum", "{graph}", "--list-trails", "--filter", "at:7@3")),
        (3, 3),
        ("568d72f010f00470026dd25b7ba75d37b3f95dde9ee5c47096fee73893bc6d0c",
         "56ed74c59d8ae789a9e92d787bb1caa59e6ef5aad58964eb258aee73375c9af1",
         "da87acacbeabe3856912d6e4698d0b2c127d04a4197eda151cda1a24157485a8")),
    "bridge": Workload(
        "bridge", (("verify", "--suite", "bridge", "--seed", "{seed}"),), None, None),
}

SMOKE = {
    "search": Workload(
        "search", (("exhaustive", "--n", "1", "--k", "1", "--bmax", "0"),), None,
        ("66a0c079e837b00f5b7107f34fef0b83a85675172e23f463b950b08fdacb6295",)),
    "witness": Workload(
        "witness",
        (("gn", "--n", "2", "--mbar", "1", "--compute"),
         ("gn", "--n", "3", "--mbar", "1", "--compute"),
         ("signed-sum", "{graph}", "--list-trails", "--filter", "at:1@1")),
        (2, 1),
        ("e4739b3512b0afe79956d4cacaba4ee3e2824b4605de9e8396c32e035249bfda",
         "fecdad6d92885a1a5473f6486034414299ae18961024ffdf0de9165291e76343",
         "871d45a5aa019e22a7c5a7b6c78b7350759d406e8b0421eb8aecf36d3fd89ac0")),
    "bridge": WORKLOADS["bridge"],
}


# -- inputs --------------------------------------------------------------------

def walk_count(edges) -> int:
    """Nonempty sequences of distinct edges in which each edge starts where
    the previous one ends."""
    layer: dict[tuple[int, int], int] = {}
    for i, (_, v) in enumerate(edges):
        layer[(1 << i, v)] = layer.get((1 << i, v), 0) + 1
    total = 0
    while layer:
        total += sum(layer.values())
        nxt: dict[tuple[int, int], int] = {}
        for (used, head), ways in layer.items():
            for i, (u, v) in enumerate(edges):
                if u == head and not used >> i & 1:
                    key = (used | 1 << i, v)
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return total


def bridge_seeds(seed: int):
    """CLI seeds for successive bridge jobs; the same --seed gives the same list."""
    from trailsum.digraph import random_feasible_graph
    rng = random.Random(seed)
    lo, hi = BRIDGE_WALKS
    while True:
        candidate = rng.randrange(2 ** 31)
        # The same draws as the sampled half of ``verify --suite bridge``.
        sample = random.Random(candidate)
        walks = 0
        for _ in range(100):
            n = sample.randint(1, 3)
            k = sample.randint(2, 8)
            walks += walk_count(random_feasible_graph(sample, n, k, bmax=3).edges)
        if lo <= walks < hi:
            yield candidate


# -- children --------------------------------------------------------------------

def probe() -> float:
    """CPU seconds this thread spends on a fixed pure-Python loop.

    Thread CPU time leaves out waiting for a CPU inside this machine, for
    instance behind a program that uses every core, but it still grows when
    the host runs the virtual CPUs slower, which is what the probe tracks.
    """
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        counts[i & 255] = counts.get(i & 255, 0) + (i >> 3).bit_count()
    return time.thread_time() - start


def spawn(w: Workload, cli_seed, commands: bool, deadline: float,
          trace: bool = False, run_id: str = "") -> dict:
    """Run one child; returns its report plus ``setup_s``, or ``ok`` False."""
    graph = OUT / f"{w.name}.graph"
    spec = {
        "inputs": {str(graph): list(w.graph)} if w.graph else {},
        "commands": [[a.format(graph=graph, seed=cli_seed) for a in argv]
                     for argv in w.commands] if commands else [],
        "trace": trace, "run_id": run_id,
        "spans_path": str(OUT / f"spans-{w.name}.jsonl"),
    }
    probes = [probe()]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    while True:
        try:
            out, err = proc.communicate(timeout=PROBE_EVERY_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                proc.kill()
                proc.communicate()
                return {"ok": False, "why": "timeout", "spec": spec, "cli_seed": cli_seed}
            probes.append(probe())
    probes.append(probe())
    if proc.returncode != 0:
        return {"ok": False, "why": f"exit {proc.returncode}: {err[-2000:]}", "spec": spec,
                "cli_seed": cli_seed}
    report = json.loads(out.strip().splitlines()[-1])
    speed = PROBE_REF_S / statistics.fmean(probes)
    wall_setup = report["ready"] - start
    wall_job = sum(c["seconds"] for c in report["commands"])
    report.update(ok=True, spec=spec, cli_seed=cli_seed, probes=len(probes), speed=speed,
                  wall_setup_s=wall_setup, wall_job_s=wall_job,
                  setup_s=wall_setup * speed, job_s=wall_job * speed)
    return report


def command_ok(w: Workload, index: int, cli_seed, cmd: dict) -> bool:
    if cmd["rc"] != 0:
        return False
    if w.expected is not None:
        return cmd["sha256"] == w.expected[index]
    return (cmd["first"] == f"suite=bridge seed={cli_seed}"
            and cmd["last"].startswith("suite=bridge ")
            and cmd["last"].endswith(" failed=0 result=PASS"))


def check(w: Workload, job: dict) -> int:
    """Number of the job's commands that failed; all of them if the child did."""
    if not job["ok"]:
        return len(w.commands)
    return sum(not command_ok(w, i, job["cli_seed"], cmd)
               for i, cmd in enumerate(job["commands"]))


# -- the run ------------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run jobs for about ``seconds``; returns the raw record of the run."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    seeds = bridge_seeds(seed) if w.expected is None else itertools.repeat(None)
    spawn(w, None, False, deadline)     # warm-up: bytecode and file caches
    setups = [spawn(w, None, False, deadline) for _ in range(SETUP_SAMPLES)]
    jobs, traced = [], []
    loop_start = time.monotonic()
    last = 0.0
    while not jobs or (time.monotonic() - loop_start + last <= seconds
                       and time.monotonic() + last < deadline):
        job_start = time.monotonic()
        cli_seed = next(seeds)
        jobs.append(spawn(w, cli_seed, True, deadline))
        if trace:
            traced.append(spawn(w, cli_seed, True, deadline, trace=True,
                                run_id=f"{w.name}-seed{seed}-job{len(jobs)}"))
        last = time.monotonic() - job_start
    return {"setups": setups, "jobs": jobs, "traced": traced,
            "wall_s": time.monotonic() - started}


def metrics(record: dict, trace: bool) -> dict:
    jobs = [j for j in record["jobs"] if j["ok"]]
    if not trace:
        setups = [c["setup_s"] for c in record["setups"] + jobs if c["ok"]]
        return {"job_s": (statistics.median(j["job_s"] for j in jobs), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(j["maxrss_kb"] / 1024 for j in jobs),
                                "MiB")}
    traced = [j for j in record["traced"] if j["ok"]]
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        # median_low: with an even count, still a value one traced job measured
        out[name] = (statistics.median_low(j["layers"][name][0] for j in traced), unit)
    out["trace.overhead_ratio"] = (statistics.median(j["job_s"] for j in traced)
                                   / statistics.median(j["job_s"] for j in jobs), "ratio")
    return out


def environment(seed: int) -> dict:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, env=env)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    dirty = git("status", "--porcelain") if in_repo else None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "git_sha": git("rev-parse", "HEAD") if in_repo else None,
            "git_dirty": None if dirty is None else dirty != "",
            "source_sha256": source.hexdigest(), "seed": seed}


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest CLI inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "trailsum" / "__init__.py").is_file():
        print(f"no trailsum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = (workloads or (SMOKE if args.smoke else WORKLOADS))[args.workload]
    trace = bool(args.trace)

    record = measure(w, args.seed, args.seconds, trace)
    ran = record["jobs"] + record["traced"]
    attempted = len(ran) * len(w.commands)
    failed = sum(check(w, j) for j in ran)
    values = metrics(record, trace) if all(j["ok"] for j in ran) else {}

    record.update(environment=environment(args.seed), args=vars(args),
                  workload=w.name, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={w.name} seed={args.seed} trace={args.trace} "
          f"jobs={len(record['jobs'])} commands={attempted} failed={failed} "
          f"failed_frac={failed / attempted:g}")
    for j in ran:
        for i, cmd in enumerate(j.get("commands", [])):
            if not command_ok(w, i, j["cli_seed"], cmd):
                print(f"mismatch: {' '.join(cmd['argv'])} rc={cmd['rc']} "
                      f"sha256={cmd['sha256']} last={cmd['last']!r}")
        if not j["ok"]:
            print(f"child failed: {j['why']}")
    if w.expected is None:
        print("bridge CLI seeds:", " ".join(str(j["cli_seed"]) for j in record["jobs"]))
    if not trace and values:
        done = [j for j in record["jobs"] if j["ok"]]
        print(f"job_s median of {len(done)} jobs: "
              + " ".join(f"{j['job_s']:.3f}" for j in done) + "; wall "
              + " ".join(f"{j['wall_job_s']:.3f}" for j in done) + "; speed "
              + " ".join(f"{j['speed']:.3f}" for j in done))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
