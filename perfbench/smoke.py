#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/smoke.py

Runs a handful of requests of every workload and checks that every verdict
passes its oracle, that every metric named in BENCHMARK.json is produced with
its unit, that a flipped oracle answer is counted as a failure, that traced
work counts repeat exactly, and that the command line prints the result line
and refuses to run without the sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

REQUESTS = 6
SEED = 7


def first_requests(workload):
    return workload.round(0)[:REQUESTS]


def check_workload(name: str, spec: dict) -> None:
    import tracer as tracing
    import workloads

    def make():
        return workloads.WORKLOADS[name](SEED)

    result = run.run_rounds(make(), rounds=1, first=first_requests(make()))
    assert result.attempted == REQUESTS, result.attempted
    assert result.failed == 0, result.failures
    values = run.end_to_end(result, [0.5])
    assert list(values) == [m["name"] for m in spec["end_to_end"]], list(values)
    assert dict(run.END_TO_END) == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    def traced_counts():
        plain, traced, tr = run.traced(make, 1, REQUESTS)
        assert plain.failed == traced.failed == 0, plain.failures + traced.failures
        metrics = tr.metrics(plain.ops_per_s(), traced.ops_per_s())
        units = {m: u for u, m in tracing.PER_LAYER}
        for m in spec["per_layer"]:
            assert m["name"] in metrics and units[m["name"]] == m["unit"], m
        return {k: metrics[k] for k in tracing.WORK_COUNTS}

    first, second = traced_counts(), traced_counts()
    assert first == second, {k: (first[k], second[k]) for k in first if first[k] != second[k]}

    flipped = []

    def flip_first(request, inputs, outcome):
        verdict = run.judge(request, inputs, outcome)
        if not flipped:
            flipped.append(request.kind)
            return not verdict
        return verdict

    result = run.run_rounds(make(), rounds=1, first=first_requests(make()), verdict=flip_first)
    assert result.failed == 1, result.failed
    print(f"ok {name}: {REQUESTS} requests, counts repeat, flipped oracle counted")


def check_command(spec: dict) -> None:
    for trace in ("0", "1"):
        proc = subprocess.run(
            [*spec["command"], "--workload", "relation-algebra", "--seed", str(SEED),
             "--seconds", "1", "--trace", trace],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
    print("ok command line: result line carries every metric with its unit")


def check_refuses_without_sources(spec: dict) -> None:
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [*spec["command"], "--workload", "lattice", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without the sources")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_equlat()
    for w in spec["workloads"]:
        check_workload(w["name"], spec)
    check_command(spec)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
