"""In-process interleaved A/B of two ghckit trees on one ``perfbench`` workload.

    python tools/ab_inproc.py PARENT CHILD --workload spectra --rounds 21 [--seed 1]

PARENT and CHILD are checkouts, each with ``src/ghckit`` and ``perfbench/workloads.py``.  Both are
imported into this one process: each tree's ``ghckit``, ``ghckit.*`` and ``workloads`` modules are
loaded from its own directories and kept apart, and put into ``sys.modules`` around each call into
that tree, so that an import made during a call (``ghckit.__getattr__``, a ``cli`` handler) finds
the tree's own modules.  A tree given twice is loaded twice, so a tree against itself is a control.

Each tree's workload builds its types, as ``perfbench/worker.py`` does, and makes the op set of
``perfbench/run.py --seconds 15`` at the same ``--seed``.  Before anything is timed, the two
trees' op sets, step records and canonical answers to every op must be equal; if any differ, the
tool names them on stderr and exits 1.  Each round then runs the workload's steps (its
enumerations) on both trees, and every op on both trees back to back, in an order shuffled per
round, the tree that goes first alternating from step to step and from op to op.

Printed, as one JSON line: the child's time over the parent's, per round, as the median and
quartiles over the rounds, for the steps and ops together (``ratio``), the ops alone and the steps
alone (null for a workload with no steps).  The tail as well: each op's median time over the
rounds, and of these, per tree, the p50 and p95 by ``perfbench/worker.py``'s definitions
(``parent_op_p95_ms`` and so on) and the child's over the parent's (``op_p50_ratio``,
``op_p95_ratio``).  Per op kind (the workload's ``kind``, such as ``ktype`` and ``mathieu`` on
``spectra``), the child's sum of per-op medians over the parent's (``kind_ratio``), so a change
to one kind of op reads apart from the others.  Below 1, the child is faster.  This is warm library
time per op in one process, not the benchmark's end-to-end metrics, which ``run.py`` measures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import statistics
import sys
import time

def _owned(name: str) -> bool:
    return name in ("ghckit", "workloads") or name.startswith("ghckit.")


class Tree:
    """One checkout's modules and workload; each call into the tree first installs its modules."""

    def __init__(self, root: str, workload: str):
        self.root = os.path.abspath(root)
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        src = os.path.join(self.root, "src")
        sys.path[:0] = [src, os.path.join(self.root, "perfbench")]
        try:
            self.workloads = importlib.import_module("workloads")
        finally:
            del sys.path[:2]
        ghckit = sys.modules["ghckit"]
        if os.path.dirname(os.path.dirname(os.path.abspath(ghckit.__file__))) != src:
            raise SystemExit(f"ghckit imported from {ghckit.__file__}, not from {src}")
        self.modules = {n: m for n, m in sys.modules.items() if _owned(n)}
        self.wl = self.workloads.make(workload)
        for key in self.wl.types:
            sys.modules["ghckit.rootsys"].build(*key)

    def install(self):
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def steps(self):
        self.install()
        return self.wl.steps(lambda name, fn, *a: list(fn(*a)))

    def answer(self, op) -> str:
        self.install()
        try:
            answer = self.wl.answer(op, self.wl.run(op))
        except Exception as e:  # an op that raises answers with its exception, as in worker.py
            answer = {"exception": type(e).__name__}
        return self.workloads.canonical(answer)

    def time_op(self, op) -> float:
        self.install()
        t = time.perf_counter()
        self.wl.run(op)
        return time.perf_counter() - t

    def time_steps(self) -> float:
        self.install()
        t = time.perf_counter()
        self.wl.steps(lambda name, fn, *a: list(fn(*a)))
        return time.perf_counter() - t


def gate(a: Tree, b: Tree, seed: int, workload: str) -> tuple[list, list[str]]:
    """The op set, and every difference between the two trees' op sets, step records and answers."""
    records = [t.steps() for t in (a, b)]
    # scale 1: the op set of perfbench/run.py --seconds 15
    ops = [t.wl.prepare(random.Random(f"{workload}/{seed}"), 1.0) for t in (a, b)]
    diffs = []
    if records[0] != records[1]:
        diffs.append(f"steps: {records[0]} != {records[1]}")
    if ops[0] != ops[1]:
        return ops[0], diffs + ["the op sets differ"]
    for op in ops[0]:
        x, y = a.answer(op), b.answer(op)
        if x != y:
            diffs.append(f"{op}: {x} != {y}")
    return ops[0], diffs


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def tail_ms(op_s: list[list[float]]) -> dict:
    """p50 and p95 in ms of the ops' median times over the rounds, as ``perfbench/worker.py`` takes
    ``op_p50_ms`` and ``op_p95_ms`` from its per-op medians."""
    ms = sorted(statistics.median(t) * 1000 for t in op_s)
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p95": p95}


def kind_ratio(wl, ops: list, parent_s: list[list[float]], child_s: list[list[float]]) -> dict:
    """For each op kind, the child's sum of per-op median times over the parent's."""
    sums: dict[str, list[float]] = {}
    for op, p, c in zip(ops, parent_s, child_s):
        pair = sums.setdefault(wl.kind(op), [0.0, 0.0])
        pair[0] += statistics.median(p)
        pair[1] += statistics.median(c)
    return {k: round(c / p, 4) for k, (p, c) in sorted(sums.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("child")
    p.add_argument("--workload", required=True, choices=("census", "shadow", "spectra"))
    p.add_argument("--rounds", type=int, default=21)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    parent, child = Tree(args.parent, args.workload), Tree(args.child, args.workload)
    ops, diffs = gate(parent, child, args.seed, args.workload)
    if diffs:
        print(f"{len(diffs)} differences between the trees' answers, nothing timed:", file=sys.stderr)
        for d in diffs[:10]:
            print(f"  {d}", file=sys.stderr)
        return 1

    has_steps = type(parent.wl).steps is not parent.workloads.Workload.steps
    ratios: dict[str, list[float]] = {"ratio": [], "ops_ratio": [], "steps_ratio": []}
    totals = {"parent": [], "child": []}
    op_s = {t: [[] for _ in ops] for t in (parent, child)}
    for r in range(args.rounds):
        gc.collect()
        steps = {parent: 0.0, child: 0.0}
        if has_steps:
            for t in (parent, child) if r % 2 else (child, parent):
                steps[t] = t.time_steps()
        spent = {parent: 0.0, child: 0.0}
        order = list(range(len(ops)))
        random.Random(f"ab/{args.seed}/{r}").shuffle(order)
        for k, i in enumerate(order):
            for t in (parent, child) if (r + k) % 2 else (child, parent):
                op_s[t][i].append(t.time_op(ops[i]))
                spent[t] += op_s[t][i][-1]
        ratios["ops_ratio"].append(spent[child] / spent[parent])
        if has_steps:
            ratios["steps_ratio"].append(steps[child] / steps[parent])
        ratios["ratio"].append((spent[child] + steps[child]) / (spent[parent] + steps[parent]))
        totals["parent"].append(spent[parent] + steps[parent])
        totals["child"].append(spent[child] + steps[child])

    tail = {name: tail_ms(op_s[t]) for name, t in (("parent", parent), ("child", child))}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "ops": len(ops),
        "parent": parent.root,
        "child": child.root,
        **{k: spread(v) if v else None for k, v in ratios.items()},
        "parent_round_s": round(statistics.median(totals["parent"]), 5),
        "child_round_s": round(statistics.median(totals["child"]), 5),
        **{f"{name}_op_{q}_ms": round(tail[name][q], 5) for name in tail for q in ("p50", "p95")},
        **{f"op_{q}_ratio": round(tail["child"][q] / tail["parent"][q], 4) for q in ("p50", "p95")},
        "kind_ratio": kind_ratio(parent.wl, ops, op_s[parent], op_s[child]),
        "python": sys.version.split()[0],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
