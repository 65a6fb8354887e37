"""Compare two sweep result files (sweep.py), workload by workload.

    python3 perfbench/compare.py BASE.json CHANGE.json

For every workload row and every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the ratio CHANGE/BASE of the
medians, and a verdict against the metric's bound:

* unresolved - either side's quartile spread, as a share of its median,
  exceeds the bound, and the runs of the two sides overlap;
* worse      - the change's median is worse than the base's by more than
  the bound;
* better     - the change wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the base's own quartile spread;
* unchanged  - otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    (b1, bm, b3), (c1, cm, c3) = summary(list(base.values())), summary(list(change.values()))
    if max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm)) > bound:
        if all(sign * c < sign * b for c in change.values() for b in base.values()):
            return "better"
        if all(sign * c > sign * b for c in change.values() for b in base.values()):
            return "worse"
        return "unresolved"
    if sign * (cm - bm) / abs(bm) > bound:
        return "worse"
    seeds = base.keys() & change.keys()
    wins = sum(sign * change[s] < sign * base[s] for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and abs(cm - bm) > b3 - b1:
        return "better"
    return "unchanged"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base = json.loads(Path(args.base).read_text())["runs"]
    change = json.loads(Path(args.change).read_text())["runs"]
    print(f"{'workload':8s} {'metric':18s} {'base q1/median/q3':>30s} "
          f"{'change q1/median/q3':>30s} {'ratio':>7s}  verdict")
    for w in [w for w in base if w in change]:
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b = {r["seed"]: r["metrics"][name] for r in base[w]}
            c = {r["seed"]: r["metrics"][name] for r in change[w]}
            bs, cs = summary(list(b.values())), summary(list(c.values()))
            ratio = cs[1] / bs[1]
            v = verdict(b, c, spec["bound"], spec["better"] == "lower")
            print(f"{w:8s} {name:18s} {'/'.join(f'{x:.4g}' for x in bs):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in cs):>30s} {ratio:7.3f}  {v}")
        for side, runs in (("base", base[w]), ("change", change[w])):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"{w:8s} {side} has incorrect runs at seeds {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
