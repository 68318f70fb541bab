#!/usr/bin/env python3
"""Verdict benchmark for equlat.

One client, one thread, closed loop: the next request is sent only after the
previous one returns.  Each request is one call into a public function of
``equlat``; every verdict is checked by an independent oracle outside the
timed region.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures whole rounds of requests for about ``--seconds``
seconds of wall time and reports the end-to-end metrics.  ``--trace 1`` runs
a fixed number of rounds, each once untraced and once traced, and reports
the per-layer metrics and the tracing overhead; its work counts depend on
the seed only.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
provenance and the traced run's spans go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 5  # setup_s is the median over this many fresh processes
# Rounds per traced run; fixed so that work counts depend on the seed only.
TRACE_ROUNDS = {"lattice": 2, "automatic-admit": 4, "halting-probe": 1, "relation-algebra": 6}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_equlat():
    """Import equlat from this checkout's ``src`` and nowhere else."""
    if not (SRC / "equlat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equlat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equlat

    if Path(equlat.__file__).resolve().parent != SRC / "equlat":
        sys.exit(f"perfbench: imported equlat from {equlat.__file__}, not {SRC}")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Outcome of a closed-loop pass over whole rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    def add(self, other: "Run") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.failures += other.failures


def judge(request, inputs, outcome) -> bool:
    try:
        return bool(request.check(inputs, outcome))
    except Exception:  # an oracle that cannot accept the outcome rejects it
        return False


def run_rounds(workload, *, seconds=None, rounds=None, first=None, tracer=None,
               verdict=judge) -> Run:
    """Send requests round by round: ``rounds`` rounds, or whole rounds for
    about ``seconds`` of wall time, ending at the round boundary nearest to
    it.  ``first`` is round 0 when it was already built during setup."""
    clock = time.perf_counter
    run = Run()
    began = clock()
    r = 0

    def more() -> bool:
        if rounds is not None:
            return r < rounds
        elapsed = clock() - began
        return r == 0 or elapsed + elapsed / r / 2 < seconds

    while more():
        for request in first if r == 0 and first is not None else workload.round(r):
            inputs = request.prep()
            if tracer is not None:
                tracer.request += 1
                tracer.active = True
            t0 = clock()
            try:
                outcome = request.call(inputs)
            except Exception as exc:  # a raised error is a wrong verdict
                outcome = exc
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            run.latencies.append(t1 - t0)
            if not verdict(request, inputs, outcome):
                run.failed += 1
                run.failures.append(f"round {r}: {request.kind}: {outcome!r:.200}")
        r += 1
    return run


def setup(name: str, seed: int):
    """Everything before the first timed request: imports, zoo and corpus
    loading, a checked warm-up and the first round's request list (inputs
    are built lazily, outside the timed region)."""
    load_equlat()
    import workloads
    from equlat import automatic, tm

    tm.zoo()
    automatic.corpus()
    workload = workloads.WORKLOADS[name](seed)
    warm = run_rounds(workload, rounds=1, first=workload.warmup())
    return workload, workload.round(0), warm.failed == 0


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time from process start to ready, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


def provenance(args, requests: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "equlat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".tm"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "requests": requests,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def emit(args, result: dict, extra: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    record = {"provenance": provenance(args, result["attempted"]), **extra, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))


def end_to_end(run: Run, setup_times: list[float]) -> dict[str, float]:
    lat_ms = [x * 1000 for x in run.latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": run.ops_per_s(),
        "op_p50_ms": nearest_rank(lat_ms, 0.5),
        "op_p90_ms": nearest_rank(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(make_workload, rounds: int, head: int | None = None):
    """The same requests untraced and traced, alternating round by round so
    that both see the same machine; each side has its own workload (and only
    the first ``head`` requests of a round when given).  Returns both runs and
    the tracer, whose wrappers are removed again."""
    import tracer as tracing

    tr = tracing.Tracer()
    sides = ((make_workload(), Run(), None), (make_workload(), Run(), tr))
    for r in range(rounds):
        for workload, total, tracer in sides:
            requests = workload.round(r)[:head] if head else workload.round(r)
            if tracer is not None:
                tracer.install()
            try:
                total.add(run_rounds(workload, rounds=1, first=requests, tracer=tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return sides[0][1], sides[1][1], tr


def main_workload(args) -> int:
    setup_times = measure_setup(args.workload, args.seed) if not args.trace else []
    workload, first, warm_ok = setup(args.workload, args.seed)
    import tracer as tracing
    import workloads

    if not args.trace:
        run = run_rounds(workload, seconds=args.seconds, first=first)
        values = end_to_end(run, setup_times)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        fail_ratio = run.failed / run.attempted
        print(
            f"{args.workload:17s} seed={args.seed} requests={run.attempted} "
            + " ".join(f"{k}={values[k]:.6g} {unit}" for k, unit in END_TO_END)
            + f" fail_ratio={fail_ratio:.6g} ratio"
        )
        extra = {"setup_probes_s": setup_times, "fail_ratio": fail_ratio}
    else:
        plain, run, tr = traced(
            lambda: workloads.WORKLOADS[args.workload](args.seed), TRACE_ROUNDS[args.workload]
        )
        values = tr.metrics(plain.ops_per_s(), run.ops_per_s())
        units = {name: unit for unit, name in tracing.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        RESULTS.mkdir(exist_ok=True)
        tr.write_spans(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        print(
            f"{args.workload:17s} seed={args.seed} traced requests={run.attempted} "
            f"overhead={values['trace.overhead_ratio']:.3f}x spans={len(tr.starts)}"
        )
        run.failed += plain.failed
        run.failures += plain.failures
        extra = {}
    for line in run.failures[:5]:
        print("FAILED " + line, file=sys.stderr)
    result = {
        "correct": run.failed == 0 and warm_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    emit(args, result, {**extra, "failures": run.failures[:20]})
    return 0


def main_all(args) -> int:
    """Each workload in a fresh process; one row per workload."""
    rows = {}
    for name in TRACE_ROUNDS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} failed")
        print(lines[0])
        rows[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{name}.{k}": v for name, r in rows.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*TRACE_ROUNDS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        ok = setup(args.workload, args.seed)[2]
        print("ready" if ok else "warm-up failed")
        return 0 if ok else 1
    if args.workload == "all":
        return main_all(args)
    return main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
