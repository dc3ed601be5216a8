#!/usr/bin/env python3
"""Steadiness check: run the workloads repeatedly and report spreads.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``run.py`` for every workload of ``BENCHMARK.json`` for its
``run_seconds``, each run with its own seed, alternating the order
of the workloads from one pass to the next.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread, the distance between the quartiles as a
share of the median, next to the metric's bound, plus the share of
failed operations.  With ``--sets 2`` it repeats the whole thing on
fresh seeds and compares each second median with the first.  Every
result is also written to ``.perfbench-work/steady-<time>.json``.

With ``--runs 1`` it is the one command that runs every workload once
and prints all their metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=time.perf_counter() - t0)
    return result


def spread(values: list) -> tuple:
    """``(median, q1, q3, (q3 - q1) / |median|)``; a layer that did no
    work has median 0 and spread 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def report(results: list, spec: dict) -> dict:
    """Print and return, per workload and end-to-end metric, the median
    and spread."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        rows = [r for r in results if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in rows})
        print(f"\n{workload}: {len(rows)} runs, {attempted} operations attempted, "
              f"{failed} failed (share {failed / attempted:.6f}; per run {', '.join(shares)}), "
              f"correct in {sum(r['correct'] for r in rows)}/{len(rows)}, "
              f"median wall {statistics.median(r['wall_s'] for r in rows):.1f} s")
        summary[workload] = {"failed_share": failed / attempted, "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            if len(values) < 2:
                line = f"  {m['name']:14s} {values[0]:12.6g} {m['unit']}"
                stats = {"median": values[0]}
            else:
                med, q1, q3, sp = spread(values)
                stats = {"median": med, "q1": q1, "q3": q3, "spread": sp}
                line = (f"  {m['name']:14s} median {med:12.6g} {m['unit']:6s} "
                        f"q1 {q1:10.6g}  q3 {q3:10.6g}  spread {sp:7.3f}  "
                        f"bound {m['bound']:.3f}  spread/bound {sp / m['bound']:.2f}")
            print(line)
            summary[workload]["metrics"][m["name"]] = stats
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    seed = args.seed
    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for workload in order:
                results.append(run_once(workload, seed, spec["run_seconds"]))
                r = results[-1]
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: "
                      f"{r['wall_s']:.1f} s, {r['failed']}/{r['attempted']} failed", flush=True)
            seed += 1
        print(f"\n=== set {s + 1} ===")
        sets.append({"results": results, "summary": report(results, spec)})
    if len(sets) > 1:
        print("\n=== second set against first: median change (positive = worse) ===")
        first, second = sets[0]["summary"], sets[-1]["summary"]
        for workload in first:
            for m in spec["end_to_end"]:
                a = first[workload]["metrics"][m["name"]]["median"]
                b = second[workload]["metrics"][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"  {workload:14s} {m['name']:14s} {worse:+.3f}  bound {m['bound']:.3f}")
            print(f"  {workload:14s} failed share {first[workload]['failed_share']:.6f} -> "
                  f"{second[workload]['failed_share']:.6f}")
    out = ROOT / ".perfbench-work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
