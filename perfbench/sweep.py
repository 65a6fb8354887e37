"""Run the benchmark over several seeds and save every run's result.

    python3 perfbench/sweep.py --out results.json [--runs 10] [--first-seed 1]

Every workload in BENCHMARK.json runs for its run_seconds, untraced, once
per seed first-seed .. first-seed+runs-1; for each seed every workload runs
once, in turn, so slow drift of the machine spreads over all workloads.
Compare two result files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                                  timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: run exited with code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": values})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    out = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "machine": platform.machine(), "seconds": seconds, "runs": runs}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for w, rs in runs.items():
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name] for r in rs]
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
                print(f"{w:8s} {name:18s} median {med:.5g} spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
