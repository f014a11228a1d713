#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics, from the root of a checkout.

    python3 perfbench/spread.py --workloads fuzz-riscv,close-uart --seeds 1-10
    python3 perfbench/spread.py --workloads close-uart --seeds 1,2 --repeat 2 --trace 1

Runs perfbench/run.py once per (workload, seed, repeat), one run at a time,
and prints for every metric the median and the interquartile range as a
share of the median (quartiles as Python's statistics.quantiles(n=4)
computes them), next to the metric's bound from BENCHMARK.json. With
--repeat > 1 it also checks that the exact-count metrics read the same on
every run of one seed. Raw results are appended to --out as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("points_covered", "close.points_excluded", "fuzz.novel_ratio", "sim.cycles",
         "sim.builds", "formal.sat", "formal.unsat", "close.waves")


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", default=os.path.join(".perfbench", "spread.ndjson"))
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(os.path.join(ROOT, args.out)), exist_ok=True)
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            for rep in range(args.repeat):
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", wl,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                res = json.loads(lines[-1])
                ok = ok and res["correct"]
                runs.append((seed, {k: v["value"] for k, v in res["metrics"].items()}))
                with open(os.path.join(ROOT, args.out), "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "trace": args.trace, **res}) + "\n")
        if not runs:
            continue
        print(f"{wl}: {len(runs)} runs")
        for name in runs[0][1]:
            vals = [m[name] for _, m in runs]
            if not any(vals):
                continue  # a layer this workload does not exercise
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = "" if bound is None or not spread == spread or spread <= bound / 3 else "  > bound/3"
            print(f"  {name:26s} median {med:14.6g}  iqr/median {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
        if args.repeat > 1:
            for seed in sorted({s for s, _ in runs}):
                same = [m for s, m in runs if s == seed]
                for name in EXACT:
                    vals = {m[name] for m in same if name in m}
                    if len(vals) > 1:
                        print(f"  NOT EXACT: {name} on seed {seed}: {sorted(vals)}")
                        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
