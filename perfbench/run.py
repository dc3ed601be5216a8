#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload vcycle-small --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print the same metrics by name with their units.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
instead, with the spans written to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vcycle-small", "numa-hier", "serve-mix")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _end_to_end(out: dict) -> dict:
    from harness import geomean, peak_rss_mb

    plain = [r.seconds for r in out["rounds"] if not r.traced]
    return {
        "setup_s": out["import_s"] + statistics.median(out["setups"]),
        "solve_s": statistics.median(plain),
        "cost_ratio": geomean(out["tally"].ratios),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer

    spec = _spec()
    tracer = Tracer() if args.trace else None
    if args.workload == "serve-mix":
        import wl_serve
        out = wl_serve.run(args.seed, args.seconds, tracer, str(ROOT))
    elif args.workload == "numa-hier":
        import wl_numa
        out = wl_numa.run(args.seed, args.seconds, tracer)
    else:
        import wl_vcycle
        out = wl_vcycle.run_small(args.seed, args.seconds, tracer)

    tally = out["tally"]
    if args.trace:
        from harness import layer_metrics
        values, layers = layer_metrics(out["rounds"])
        # a layer the workload does not reach did no work in it
        values = {m["name"]: 0.0 for m in spec["per_layer"]} | values | out.get("layer", {})
        names = spec["per_layer"]
        dump = ROOT / ".perfbench-work" / f"spans-{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        tracer.dump(dump)
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("layer self time per traced round: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    else:
        values = _end_to_end(out)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in names}
    rounds = out["rounds"]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    for problem in tally.problems[:20]:
        print(f"  failed: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
