"""One run of one workload in a fresh process; prints a JSON summary line.

    python3 perfbench/worker.py --workload census --seed 1 --seconds 15 \
        [--passes N] [--trace]

The seed and --seconds fix the op set (its size scales with --seconds, sized
so that the workload's passes take about --seconds on a 2-core x86 box with
CPython 3.11).  Each pass runs the workload's timed steps (enumerations),
then every op once, in a fresh seeded order.  Input generation, answers,
digests and checks run between ops, outside the timed region; the checks
run on the first pass, and later passes must reproduce its answers exactly.

Timings are per op, and per block of 50 items of a step, at reference speed
(see speed.py), the median over the passes.  ``--trace`` records spans (use
one pass: every call count then repeats exactly).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NOMINAL_SECONDS = 15
STEP_BLOCK = 50  # items of an enumeration timed together


def child_env() -> dict:
    """Environment for ghckit subprocesses: this checkout's sources, default rank cap."""
    env = {k: v for k, v in os.environ.items() if k not in ("GHC_MAX_RANK", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--passes", type=int, default=0, help="default: the workload's own count")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import ghckit

    if os.path.dirname(os.path.dirname(os.path.abspath(ghckit.__file__))) != SRC:
        raise SystemExit(f"ghckit imported from {ghckit.__file__}, not from {SRC}")
    from ghckit import rootsys

    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and args.workload != "cli":
        tracer.install()
    spans_path = os.path.join(OUT, f"child-spans-{os.getpid()}.json")
    wl = workloads.make(args.workload, child_env(), spans_path, tracer)

    passes = args.passes or wl.passes

    # set-up: fill the build cache, as a long-lived caller would (timed apart as setup_s)
    for key in wl.types:
        rootsys.build(*key)
    if tracer is not None:
        tracer.active = False

    times: dict = {}  # times at reference speed of each op and each block of each timed step, one a pass

    clock = speed.Clock(lambda key, t: times.setdefault(key, []).append(t), window_s=wl.window_s)

    def timed(key, fn, *a):
        if tracer is not None:
            tracer.active = True
        try:
            return clock.time(key, fn, *a)
        finally:
            if tracer is not None:
                tracer.active = False

    def timed_step(name, fn, *a):
        """Consume the iterator fn(*a) inside the timed region, in blocks
        that are each timed like an op."""
        items = iter(fn(*a))
        out = []
        for b in itertools.count():
            block = timed((name, b), lambda: list(itertools.islice(items, STEP_BLOCK)))
            if not block:
                return out
            out += block

    ops: list = []
    answers: list[str] = []  # canonical answer of each op, first pass
    failed: list = []  # failure of each op, first pass
    pass_s: list[float] = []
    failures: Counter = Counter()
    problems: list[str] = []

    for n in range(passes):
        wall_at_start = clock.wall_s
        if tracer is not None:
            tracer.op = f"pass-{n}"
        record = wl.steps(timed_step)
        if n == 0:
            first_record = record
            ops = wl.prepare(random.Random(f"{args.workload}/{args.seed}"), args.seconds / NOMINAL_SECONDS)
            answers, failed = [""] * len(ops), [None] * len(ops)
        elif record != first_record:
            problems.append(f"pass {n}: timed steps gave {record}, first pass {first_record}")
        order = list(range(len(ops)))
        random.Random(f"{args.workload}/{args.seed}/pass-{n}").shuffle(order)
        for i in order:
            op = ops[i]
            if tracer is not None:
                tracer.op = i
            failure = None
            try:
                raw = timed(i, wl.run, op)
            except Exception as e:  # an op that raises is a failed op, not a crash
                failure, answer = f"{wl.kind(op)}: {type(e).__name__}: {e}", {"exception": type(e).__name__}
            if failure is None:
                if n == 0:
                    failure, found = wl.check(op, raw)
                    problems += found
                answer = wl.answer(op, raw)
            text = workloads.canonical(answer)
            if n == 0:
                answers[i], failed[i] = text, failure
            elif text != answers[i]:
                problems.append(f"pass {n}: answer to {op} changed")
            failure = failure or failed[i]
            if failure is not None:
                failures[failure] += 1
        clock.flush()
        pass_s.append(clock.wall_s - wall_at_start)

    digest = hashlib.sha256(workloads.canonical({"steps": first_record}).encode())
    for text in answers:
        digest.update(("\n" + text).encode())

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    typical = {key: statistics.median(t) for key, t in times.items()}
    ms = sorted(typical[i] * 1000 for i in range(len(ops)))
    step_s: dict[str, float] = {}
    for key, t in typical.items():
        if isinstance(key, tuple):
            step_s[key[0]] = step_s.get(key[0], 0.0) + t
    typical_s = sum(typical.values())
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "attempted": len(ops) * passes,
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "problems": problems[:20],
        "problem_count": len(problems),
        "pass_s": pass_s,
        "ref_ms": [round(min(clock.refs) * 1000, 4), round(statistics.median(clock.refs) * 1000, 4),
                   round(max(clock.refs) * 1000, 4)],
        "step_s": step_s,
        "typical_s": typical_s,
        "ops_per_s": len(ops) / typical_s,
        "op_p50_ms": statistics.median(ms),
        "op_p95_ms": statistics.quantiles(ms, n=20, method="inclusive")[18] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "inputs_digest": workloads.sha(ops),
        "types": [f"{s}{n}" for s, n in wl.types],
    }
    if tracer is not None:
        stats = tracing.aggregate(tracer.spans)
        layers = tracing.layer_metrics(stats)
        layers["cli.startup_s"] = getattr(wl, "startup_s", 0.0)
        layers["cli.exit_other"] = getattr(wl, "exit_other", 0)
        summary["layers"] = layers
        summary["not_traced"] = tracer.missing
        spans_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_file, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"], "spans": tracer.spans}, f)
        summary["spans_file"] = os.path.relpath(spans_file, ROOT)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
