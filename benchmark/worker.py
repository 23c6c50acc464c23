"""One repetition of a benchmark workload in a fresh interpreter.

Reads a job (JSON) on standard input, imports ``rauzy`` from the job's
source directory, runs the timed region once, checks the outputs outside the
timed region and prints one JSON result line.  Every repetition runs in its
own process, so the module-level caches of ``rauzy`` start empty, as they do
for a command-line user.

Job keys: ``src``, ``kind`` (``verify``, ``invariants`` or ``suspension``);
``d``, ``perm_kind``, ``candidates`` and ``census`` (verify); ``tables``
(table text) and ``reference`` (invariants); ``tables`` and ``rng`` (one
seed string per table, suspension); ``setup_only``, ``trace``, ``check`` and
``spans_path``.  Times in the result are scaled to nominal host speed by
:class:`hostspeed.SpeedGauge`; ``raw_wall_s`` is the clock time.
"""
from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from hostspeed import NOMINAL_PROBE_S, PROBE_ITERATIONS, SpeedGauge, reference_loop

MAX_RV_STEPS = 200
IET_D8_IRREDUCIBLE = 29_093  # OEIS A003319: indecomposable permutations of 8


def run_verify(job, inputs, tracer):
    import rauzy.classes

    kind = rauzy.PermKind(job["perm_kind"])
    report = rauzy.classes.verify_main_theorem(job["d"], kind)
    return [report], [], 0


def run_invariants(job, texts, tracer):
    import rauzy.cli

    outputs, spans, failed = [], [], 0
    for index, text in enumerate(texts):
        if tracer is not None:
            tracer.item = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = rauzy.cli.main(["--output", "json", "invariants", text])
        except Exception as exc:  # a traceback counts as a failed item
            code = f"{type(exc).__name__}: {exc}"
        spans.append((start, time.perf_counter()))
        if code != 0:
            failed += 1
            print(f"invariants item {index} ({text}) failed: {code} {err.getvalue()}",
                  file=sys.stderr)
        outputs.append(out.getvalue())
    return outputs, spans, failed


def run_suspension(job, perms, tracer):
    import rauzy.induction
    import rauzy.suspension
    from rauzy.errors import InductionHalt

    sus, ind = rauzy.suspension, rauzy.induction
    outputs, spans, failed = [], [], 0
    for index, (p, rng_seed) in enumerate(zip(perms, job["rng"])):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            zeta = sus.find_suspension(p)
            profile = sus.geometric_profile(sus.build_polygon(p, zeta))
            rand = sus.random_suspension(p, Random(rng_seed))
            q, z, steps = p, rand, []
            for _ in range(MAX_RV_STEPS):
                try:
                    q, z = ind.rv_step(q, z)
                except InductionHalt:
                    break
                steps.append((q, z))
            outputs.append((p, zeta, profile, rand, steps))
        except Exception as exc:  # RauzyError or a traceback: the item fails
            failed += 1
            outputs.append(None)
            print(f"suspension item {index} ({p}) failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        spans.append((start, time.perf_counter()))
    return outputs, spans, failed


def digest_verify(outputs):
    return outputs[0].to_json()


def digest_invariants(outputs):
    return "\n".join(outputs)


def digest_suspension(outputs):
    lines = []
    for out in outputs:
        if out is None:
            lines.append("failed")
            continue
        p, zeta, profile, rand, steps = out
        lines.append(f"{p} | {zeta} | {profile.angles_pi} {profile.marked_pi} | {rand}")
        lines.extend(f"  {q} | {z}" for q, z in steps)
    return "\n".join(lines)


def check_verify(job, outputs, inputs):
    """Number of failed candidates: all of them when the census is wrong."""
    report = outputs[0]
    if job["perm_kind"] == "iet" and job["d"] == 8:
        total = sum(sum(g.class_sizes) for g in report.groups)
        ok = report.passed and total == IET_D8_IRREDUCIBLE
    elif job.get("census") is not None:
        ok = report.passed and report.to_dict() == job["census"]
    else:
        ok = report.passed
    if not ok:
        print(f"verify d={job['d']} {job['perm_kind']}: census check failed",
              file=sys.stderr)
    return 0 if ok else job["candidates"]


def _order(angle_pi: int, iet: bool) -> int:
    """Singularity order of a cone angle in units of pi."""
    return angle_pi // 2 - 1 if iet else angle_pi - 2


def _corner_profile(top, bottom, iet):
    """Orders and marked order by an independent corner walk of the table.

    The polygon boundary lists the bottom row left to right, then the top
    row right to left; position ``t`` rotates to the partner of ``t - 1``.
    Each interior corner adds a half-turn; the end corners (0 and m) none.
    """
    boundary = list(bottom) + list(reversed(top))
    n, m = len(boundary), len(bottom)
    first, partner = {}, [0] * n
    for t, s in enumerate(boundary):
        if s in first:
            partner[first[s]], partner[t] = t, first[s]
        else:
            first[s] = t
    seen, orders, marked = [False] * n, [], None
    for start in range(n):
        t, angle, has_origin = start, 0, False
        if seen[t]:
            continue
        while not seen[t]:
            seen[t] = True
            angle += t != 0 and t != m
            has_origin |= t == 0
            t = partner[t - 1]
        orders.append(_order(angle, iet))
        if has_origin:
            marked = orders[-1]
    return tuple(sorted(orders)), marked


def _oracle_orders(p, profile):
    """Orders and marked order read off a polygon's cone angles."""
    iet = p.kind.value == "iet"
    orders = tuple(sorted(_order(a, iet) for a in profile.angles_pi))
    return orders, _order(profile.marked_pi, iet)


def check_invariants(job, outputs, texts):
    """Failed items: each output against the polygon oracle and its class."""
    from rauzy import Stratum, StratumKind, parse, rauzy_class
    from rauzy.suspension import build_polygon, find_suspension, geometric_profile

    failed = 0
    for index, (text, out) in enumerate(zip(texts, outputs)):
        ok = False
        try:
            data = json.loads(out)
            p = parse(text)
            iet = p.kind.value == "iet"
            poly = build_polygon(p, find_suspension(p))
            orders, marked = _oracle_orders(p, geometric_profile(poly))
            kind = StratumKind.ABELIAN if iet else StratumKind.QUADRATIC
            ref = job["reference"][index]
            vertices = rauzy_class(p).vertices
            ok = (
                data["stratum"] == Stratum(kind, orders).text == ref["stratum"]
                and tuple(data["orders"]) == orders
                and data["marked"] == marked
                and data["component"] == ref["component"]
                and data["marked"] == ref["marked"]
                and len(vertices) == ref["size"]
                and all(
                    _corner_profile(v.top, v.bottom, iet) == (orders, marked)
                    for v in vertices
                )
            )
        except Exception as exc:  # a malformed output fails its item
            print(f"invariants check {index}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        if not ok:
            failed += 1
            print(f"invariants item {index} ({text}) failed its check", file=sys.stderr)
    return failed


def check_suspension(job, outputs, perms):
    from rauzy.invariants import singularity_profile
    from rauzy.suspension import check_suspension as valid

    failed = 0
    for index, out in enumerate(outputs):
        if out is None:
            continue  # already counted as failed
        p, zeta, profile, rand, steps = out
        want = singularity_profile(p)
        ok = (
            valid(p, zeta)
            and valid(p, rand)
            and all(valid(q, z) for q, z in steps)
            and _oracle_orders(p, profile) == (want.orders, want.marked)
        )
        if not ok:
            failed += 1
            print(f"suspension item {index} ({p}) failed its check", file=sys.stderr)
    return failed


WORKLOADS = {
    "verify": (run_verify, digest_verify, check_verify),
    "invariants": (run_invariants, digest_invariants, check_invariants),
    "suspension": (run_suspension, digest_suspension, check_suspension),
}


def cpu_seconds() -> float:
    """CPU time of this process and of any processes it waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, job["src"])
    import rauzy  # noqa: F401  (import time is part of set-up)
    import rauzy.cli  # noqa: F401

    if job["kind"] == "suspension":
        inputs = [rauzy.parse(text) for text in job["tables"]]
    else:
        inputs = job.get("tables", [])
    ready = time.monotonic()
    start = time.perf_counter()
    reference_loop(PROBE_ITERATIONS)
    probe = time.perf_counter() - start
    result = {"ready": ready, "ready_slowdown": probe / NOMINAL_PROBE_S}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    run, digest, check = WORKLOADS[job["kind"]]
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedGauge() as gauge:
        start, cpu0 = time.perf_counter(), cpu_seconds()
        outputs, spans, failed = run(job, inputs, tracer)
        end, cpu = time.perf_counter(), cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = gauge.seconds(start, end)
    result.update(
        wall_s=wall,
        raw_wall_s=end - start,
        cpu_s=cpu * wall / (end - start),
        slowdown=gauge.slowdown(),
        peak_rss_mb=peak_rss_mb,
        latencies_s=[gauge.seconds(a, b) for a, b in spans],
        attempted=len(spans) or job["candidates"],
        digest=hashlib.sha256(digest(outputs).encode()).hexdigest(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    if job.get("check"):
        failed += check(job, outputs, inputs)
    result["failed"] = failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
