#!/usr/bin/env python3
"""Benchmark of the rauzy toolkit: one workload per run.

Usage (from the repository root)::

    python3 benchmark/run.py --workload verify-iet-d8 --seed 1 --seconds 10 --trace 0

The run makes its inputs from ``--seed``, then runs a fixed number of
repetitions sized from ``--seconds``.  Each repetition is a fresh
single-threaded interpreter (``benchmark/worker.py``) that imports ``rauzy``
from ``src/``, reads the generated tables from standard input and runs the
timed region once, so module-level caches start empty as they do for a
command-line user.  Outputs are checked outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: medians over repetitions, with times scaled to the
nominal speed of the reference host (see ``hostspeed.py``).  With
``--trace 1`` the run first does the tracer self-test, then one untraced and
one traced repetition of the same inputs, and reports the per-layer metrics
of the traced one plus ``trace.overhead_s``.  The lines before the last one
are a readable report and a host record (Python version, CPU count,
platform, raw wall times, measured slowdowns and the time of a fixed
pure-Python reference loop before and after the run), which is also
appended to ``.perfbench/records.jsonl``.  The exit code is 0 only when
every item passed its check.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from random import Random

from hostspeed import reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0  # a run must end within 180 s

# Seconds one repetition takes on the reference host (2 cores, Python 3.11).
# A run does round(--seconds / this) repetitions, at least one, so the work
# of a run and the sample size of every statistic are fixed for a workload.
REP_SECONDS = {
    "verify-iet-d8": 9.0,
    "verify-quad-d6": 29.0,
    "invariants": 9.5,
    "suspension": 7.5,
}
SETUP_PROBES = 5  # extra set-up-only interpreters per untraced run
WALK_STEPS = 64  # random Rauzy moves from a class representative
SUSPENSION_TABLES = {6: 180, 7: 180}
# Reduced two-to-one tables that are not interval-exchange tables, by d.
QUAD_CANDIDATES = {5: 8_385, 6: 113_625}

# What each per-layer metric should move, printed with the traced report.
MOVES = {
    "combinat.": "wall_s on verify-iet-d8 and verify-quad-d6",
    "linprog.feasible": "wall_s on verify-quad-d6 most, then verify-iet-d8",
    "linprog.solve": "wall_s on suspension; verify workloads unchanged",
    "suspension.": "wall_s and item_ms_p50 on suspension (find_s also invariants)",
    "induction.": "wall_s on suspension",
    "classes.": "item_ms_p50, item_ms_tail and peak_rss_mb on invariants",
    "invariants.": "wall_s on invariants",
    "cli.": "item_ms_p50 on invariants",
    "trace.": "nothing: traced wall_s minus untraced wall_s",
}


def load_reference(name: str):
    with open(os.path.join(HERE, "reference", name), encoding="utf-8") as fh:
        return json.load(fh)


def random_table(rng: Random, d: int):
    """Uniform pairing of ``2d`` cells and a uniform split point, reduced."""
    from rauzy import reduce

    cells = list(range(2 * d))
    rng.shuffle(cells)
    table = [0] * (2 * d)
    for s in range(d):
        table[cells[2 * s]] = table[cells[2 * s + 1]] = s + 1
    split = rng.randint(1, 2 * d - 1)
    return reduce(table[:split], table[split:])


def class_walk(rng: Random, text: str):
    """A vertex of the class of ``text`` after a seeded random walk of moves."""
    from rauzy import parse, r0, r1

    p = parse(text)
    for _ in range(WALK_STEPS):
        moves = [q for q in (r0(p), r1(p)) if q is not None]
        p = rng.choice(moves)
    return p


def make_job(workload: str, seed: int) -> dict:
    """Inputs of one workload; the same seed gives the same job."""
    from rauzy import PermKind, format_perm, is_irreducible

    job = {"src": SRC}
    if workload == "verify-iet-d8":
        job.update(kind="verify", d=8, perm_kind="iet", candidates=math.factorial(8))
    elif workload == "verify-quad-d6":
        job.update(kind="verify", d=6, perm_kind="quadratic",
                   candidates=QUAD_CANDIDATES[6],
                   census=load_reference("verify-quad-d6.json"))
    elif workload == "invariants":
        # Stratified draw: one seeded vertex of every listed class, in a fixed
        # order, so each seed makes the same BFS and labelling work.
        rng = Random(f"invariants:{seed}")
        classes = load_reference("invariants-classes.json")
        job.update(kind="invariants",
                   tables=[format_perm(class_walk(rng, c["table"])) for c in classes],
                   reference=classes)
    elif workload == "suspension":
        rng = Random(f"suspension:{seed}")
        tables = []
        for d, count in SUSPENSION_TABLES.items():
            drawn = 0
            while drawn < count:
                p = random_table(rng, d)
                if p.kind is PermKind.QUADRATIC and is_irreducible(p):
                    tables.append(p)
                    drawn += 1
        rng.shuffle(tables)
        job.update(kind="suspension", tables=[format_perm(p) for p in tables],
                   rng=[f"{seed}:{i}" for i in range(len(tables))])
    return job


class Runner:
    """Spawns worker interpreters one at a time under one overall deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        # Fixed hashing, and byte-code caching on as for an installed package,
        # whatever the caller's environment says.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, job: dict, **extra) -> dict:
        """Run one worker; returns its result plus ``setup_s``."""
        payload = json.dumps(dict(job, **extra))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=payload,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=max(1.0, self.deadline - start),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = (result["ready"] - start) / result["ready_slowdown"]
        return result


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 0


def percentile(values: list, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def end_to_end(reps: list, setups: list) -> tuple[dict, str]:
    """Medians over repetitions; per-item statistics are taken per repetition."""
    p50s, tails, rates = [], [], []
    note = ""
    for rep in reps:
        lat = rep["latencies_s"]
        if lat:
            q = tail_percentile(len(lat))
            p50s.append(statistics.median(lat) * 1000)
            tails.append(percentile(lat, q) * 1000)
            note = f"item_ms_tail is p{q} of {len(lat)} items per repetition"
        else:
            # Verify runs one call over every candidate: amortized per item.
            p50s.append(rep["wall_s"] / rep["attempted"] * 1000)
            tails.append(p50s[-1])
            note = f"item_ms is wall_s / {rep['attempted']} candidates (one call)"
        rates.append(rep["attempted"] / rep["wall_s"])
    med = statistics.median
    values = {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in reps),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "items_per_s": med(rates),
        "item_ms_p50": med(p50s),
        "item_ms_tail": med(tails),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }
    return values, note


def load_spec() -> dict:
    """Metric names and units per mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {mode: {m["name"]: m["unit"] for m in spec[mode]}
            for mode in ("end_to_end", "per_layer")}


def selftest(runner: Runner, job: dict) -> list[str]:
    """Tracer self-test on a tiny job of the same kind; returns the problems."""
    from rauzy import parse, rauzy_class

    problems = []
    table = "1 2 3 4 / 4 3 2 1"
    tiny = {"src": SRC, "kind": "invariants", "tables": [table]}
    layers = runner.spawn(tiny, trace=True)["layers"]
    want = len(rauzy_class(parse(table)))
    if layers["classes.bfs_vertices"] != want:
        problems.append(f"classes.bfs_vertices {layers['classes.bfs_vertices']} != {want}")

    if job["kind"] == "verify":
        small = dict(job, d=5, census=None,
                     candidates=120 if job["perm_kind"] == "iet" else QUAD_CANDIDATES[5])
    else:
        small = dict(job)
        for key in ("tables", "rng", "reference"):
            if key in small:
                small[key] = small[key][:4]
    plain = runner.spawn(small, check=True)
    first = runner.spawn(small, trace=True)
    second = runner.spawn(small, trace=True)
    if plain["failed"]:
        problems.append("the untraced tiny job failed its check")
    if not plain["digest"] == first["digest"] == second["digest"]:
        problems.append("tracing changed the outputs")
    units = load_spec()["per_layer"]
    counts = [{k: v for k, v in r["layers"].items() if units[k] == "count"}
              for r in (first, second)]
    if counts[0] != counts[1]:
        problems.append(f"counts differ between traced runs: {counts}")
    return problems


def time_reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed."""
    start = time.perf_counter()
    reference_loop(1_000_000)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "rauzy")):
        print(f"error: no rauzy package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    ref_before = time_reference_loop()
    runner = Runner()
    job = make_job(args.workload, args.seed)
    problems = []
    if args.trace:
        problems = selftest(runner, job)
        untraced = runner.spawn(job, check=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}.tsv")
        traced = runner.spawn(job, trace=True, spans_path=spans_path)
        if traced["digest"] != untraced["digest"]:
            problems.append("tracing changed the outputs")
        reps = [untraced]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        note = f"spans written to {os.path.relpath(spans_path, ROOT)}"
    else:
        setups = [runner.spawn(job, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        count = max(1, round(args.seconds / REP_SECONDS[args.workload]))
        reps = [runner.spawn(job, check=True) for _ in range(count)]
        if len({r["digest"] for r in reps}) != 1:
            problems.append("repetitions disagree on their outputs")
        values, note = end_to_end(reps, setups + [r["setup_s"] for r in reps])

    units = load_spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "reference_loop_s": [ref_before, time_reference_loop()],
        "raw_wall_s": [r["raw_wall_s"] for r in reps],
        "slowdown": [r["slowdown"] for r in reps],
        "metrics": values,
    }
    with open(os.path.join(OUT, "records.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for problem in problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        moves = next((m for prefix, m in MOVES.items() if name.startswith(prefix)), "")
        print(f"{name:34} {value:14.6g} {unit:6} {moves}")
    print(f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.6g}; {note}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
