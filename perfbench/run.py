"""ghckit benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the benchmark imports ghckit from its
``src/`` and nothing else.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it carries
the details (failures by kind, answer and input digests).  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from worker import child_env  # noqa: E402

SETUP_RUNS = 5


class BenchError(Exception):
    pass


def _python(args, timeout):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=timeout, cwd=ROOT
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(types: list[str]) -> float:
    """Median over fresh interpreters of import + cold builds of ``types``, at
    reference speed; each probe runs on the CPU that is fastest as it starts."""
    probe = os.path.join(HERE, "setup_probe.py")
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for _ in range(SETUP_RUNS):
            speed.pin_fastest(sorted(allowed))
            times.append(float(_python([probe, *types], 60)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(times)


def worker(workload, seed, seconds, passes, trace=False) -> dict:
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--passes", str(passes)]
    if trace:
        args.append("--trace")
    return json.loads(_python(args, 170))


def with_units(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ghckit", "__init__.py")):
        print(f"perfbench: no ghckit sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        p.error("--seconds must be positive")

    wl = args.workload
    try:
        if args.trace == 0:
            res = worker(wl, args.seed, args.seconds, passes=0)
            values = {
                "ops_per_s": res["ops_per_s"],
                "op_p50_ms": res["op_p50_ms"],
                "op_p95_ms": res["op_p95_ms"],
                "ok_share": 1 - res["failed"] / res["attempted"],
                "setup_s": setup_seconds(res["types"]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = with_units(values, spec["end_to_end"])
            correct = res["problem_count"] == 0
        else:
            # one pass each: the traced one gives exact call counts, the plain
            # one the rate that tracing slows down
            plain = worker(wl, args.seed, args.seconds, passes=1)
            res = worker(wl, args.seed, args.seconds, passes=1, trace=True)
            values = dict(res["layers"], **{"trace.overhead_share": 1 - res["ops_per_s"] / plain["ops_per_s"]})
            metrics = with_units(values, spec["per_layer"])
            # tracing must not change a single answer
            correct = res["problem_count"] == 0 == plain["problem_count"] and res["digest"] == plain["digest"]
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    detail = {k: res[k] for k in ("workload", "seed", "ops", "pass_s", "step_s", "failures", "problem_count",
                                  "digest", "inputs_digest", "ref_ms")}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
