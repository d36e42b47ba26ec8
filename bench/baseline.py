"""Measure a baseline: ten seeds per workload, with medians and spreads.

Usage:
    python3 bench/baseline.py [--seeds 1-10] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed on every workload that
``BENCHMARK.json`` declares, one run after another, then one ``--trace 1``
run per workload on the first seed.  For every printed metric it records
the ten values, their median, their quartiles and the spread (the distance
between the quartiles as a share of the median), and writes the result as
JSON (default: stdout).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LINE = re.compile(r"^  (\S+) = (\S+) (\S+)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        m = LINE.match(line)
        if m and m.group(2) != "n/a":
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    meta = json.loads(next(x for x in lines if x.startswith("meta: "))[6:])
    return {"code": proc.returncode, "result": result, "printed": printed,
            "meta": meta}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    seconds = spec["run_seconds"]

    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        ok &= all(r["code"] == 0 for r in runs + [traced])
        names = runs[0]["printed"]
        out["meta"] = runs[0]["meta"]
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {n: dict(summary([r["printed"][n][0] for r in runs]),
                             unit=names[n][1]) for n in names},
            "per_layer_seed": seeds[0],
            "per_layer": {n: {"value": v, "unit": u}
                          for n, (v, u) in traced["printed"].items()},
        }
        out["workloads"][workload] = entry
        for n in spec["end_to_end"]:
            m = entry["metrics"][n["name"]]
            print(f"{workload:20s} {n['name']:12s} median={m['median']:.5g} "
                  f"spread={m['spread']:.4f} bound={n['bound']}", file=sys.stderr)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
