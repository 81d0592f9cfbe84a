"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 2]

Checks, on small op sets:
  * two traced runs at one seed give the same deterministic counts (every
    ``*.calls``, tableau and DP cells, enumerated subsets, cold builds,
    odd exit codes) and the same answer and input digests;
  * another seed gives other inputs;
  * an untraced run prints every end-to-end metric of BENCHMARK.json;
  * the benchmark names no private ghckit attribute;
  * outside a checkout (only BENCHMARK.json and perfbench/) it fails
    without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("calls", "tableau_cells", "dp_cells", "yielded", "cold_calls", "exit_other")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result(workload, seed, seconds, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace))
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, detail, last = proc.stdout.splitlines()
    out = json.loads(last)
    if not out["correct"]:
        sys.exit(f"FAIL {workload} seed {seed}: wrong answers\n{proc.stderr}")
    return json.loads(detail)["detail"], out


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}


def private_names() -> list[str]:
    """Attribute reads like ``rootsys._construct`` on ghckit modules."""
    found = []
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(HERE, name)).read())
        modules = {"ghckit"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ghckit"):
                modules |= {a.asname or a.name for a in node.names}
                found += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.append(f"{name}: {node.value.id}.{node.attr}")
    return found


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=2)
    args = p.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    for wl in (w["name"] for w in spec["workloads"]):
        d1, r1 = result(wl, 11, args.seconds, 1)
        d2, r2 = result(wl, 11, args.seconds, 1)
        d3, _ = result(wl, 12, args.seconds, 1)
        if sorted(r1["metrics"]) != sorted(m["name"] for m in spec["per_layer"]):
            sys.exit(f"FAIL {wl}: traced metrics differ from BENCHMARK.json per_layer")
        c1, c2 = counts(r1["metrics"]), counts(r2["metrics"])
        if c1 != c2:
            diff = {k: (c1[k], c2[k]) for k in c1 if c1[k] != c2[k]}
            sys.exit(f"FAIL {wl}: counts differ between runs at one seed: {diff}")
        if (d1["digest"], d1["inputs_digest"]) != (d2["digest"], d2["inputs_digest"]):
            sys.exit(f"FAIL {wl}: digests differ between runs at one seed")
        if d3["inputs_digest"] == d1["inputs_digest"]:
            sys.exit(f"FAIL {wl}: seeds 11 and 12 gave the same inputs")
        print(f"ok {wl}: {len(c1)} counts and both digests repeat; seed 12 changes the inputs")

    _, r = result("spectra", 11, args.seconds, 0)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if {k: v["unit"] for k, v in r["metrics"].items()} != want:
        sys.exit("FAIL untraced metrics differ from BENCHMARK.json end_to_end")
    print("ok end-to-end metrics and units match BENCHMARK.json")

    found = private_names()
    if found:
        sys.exit(f"FAIL private ghckit names used: {found}")
    print("ok only public ghckit names")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL a directory without ghckit sources gave a result")
    print("ok refuses to run without ghckit sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
