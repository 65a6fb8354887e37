"""One fresh interpreter of the benchmark: set-up, timed phase, check.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --phase {setup,measure,trace} --launched T

`--launched` is the parent's time.monotonic() just before it started this
process; set-up time runs from then until the timed phase begins.  The
timed phase is a closed loop with one caller: the next query is sent when
the previous one has returned, until the time spent inside coxkit calls
reaches S reference seconds.  Bursts of the calibration kernel
(calibration.py) run between queries every CALIBRATE_EVERY_S; each query's
latency is scaled to reference time with the bursts around it.  Answers are
checked after the loop.  The last line of standard output is one JSON
object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
CALIBRATE_EVERY_S = 0.05


def _import_coxkit():
    sys.path.insert(0, str(SRC))
    import coxkit
    if Path(coxkit.__file__).resolve().parent != (SRC / "coxkit").resolve():
        raise SystemExit(f"coxkit was imported from {coxkit.__file__}, not from {SRC}")
    return coxkit


def _profile(records, passed, workload):
    """The input properties that drive cost: the mix over all queries sent,
    sizes over the queries answered correctly."""
    by_group = Counter(q["group"] for q, _ in records)
    by_op = Counter(q["op"] for q, _ in records)
    n = len(records) or 1
    props = [workload.profile(q, a) for q, a in passed]
    out = {"queries": len(records),
           "group_share": {g: round(c / n, 4) for g, c in sorted(by_group.items())},
           "op_share": {o: round(c / n, 4) for o, c in sorted(by_op.items())}}
    for key in sorted({k for p in props for k in p}):
        values = [p[key] for p in props if key in p]
        out[key] = {"mean": round(statistics.fmean(values), 3),
                    "min": min(values), "max": max(values)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)

    ck = _import_coxkit()
    sys.path.insert(0, str(HERE))
    from calibration import kernel_seconds, scale
    tracer = None
    if args.phase == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ck)
    workload.setup()
    setup_s = time.monotonic() - args.launched
    kernel_after_setup = kernel_seconds(16)
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "kernel_after_setup_s": kernel_after_setup}))
        return 0

    recorded = json.loads((HERE / "data" / "recorded.json").read_text())
    workload.prepare(recorded)
    if tracer:
        tracer.counts.clear()
    records, latencies, bracket = [], [], []
    kernel = [kernel_seconds()]
    busy = since_kernel = 0.0
    clock = time.perf_counter
    for qid, q in enumerate(workload.queries(args.seed)):
        t0 = clock()
        try:
            answer = tracer.run_query(qid, workload.run, q) if tracer else workload.run(q)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        dt = clock() - t0
        records.append((q, answer))
        latencies.append(dt)
        bracket.append(len(kernel) - 1)
        busy += scale(dt, kernel[-1])
        since_kernel += dt
        if since_kernel >= CALIBRATE_EVERY_S:
            kernel.append(kernel_seconds())
            since_kernel = 0.0
        if busy >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel.append(kernel_seconds())
    scaled = [scale(dt, (kernel[k] + kernel[k + 1]) / 2) for dt, k in zip(latencies, bracket)]

    result = {"setup_s": setup_s, "kernel_after_setup_s": kernel_after_setup,
              "peak_rss_mb": peak_rss_mb, "latencies_ms": [x * 1e3 for x in scaled],
              "busy_s": sum(scaled), "raw_busy_s": sum(latencies),
              "kernel_s": statistics.median(kernel)}
    if tracer:
        tracer.uninstall()
        from tracer import per_layer_metrics
        intern = sum(len(W._intern) for W in workload.systems.values())
        result["per_layer"] = per_layer_metrics(tracer, len(records), intern,
                                                scale(1.0, result["kernel_s"]))
        result["skipped"] = tracer.skipped
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{args.workload}-{args.seed}.bin")

    from checker import Checker
    checker = Checker(ck, workload.systems, recorded)
    failures, passed = [], []
    for q, answer in records:
        if isinstance(answer, Exception):
            reason = f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                reason = checker.check(q, answer)
            except Exception as exc:  # an answer of the wrong shape is a wrong answer
                reason = f"unreadable answer {answer!r} ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(f"{q['group']} {q['op']}: {reason}")
        else:
            passed.append((q, answer))
    result.update(attempted=len(records), failed=len(failures), failures=failures[:20],
                  golden_mismatch=checker.golden_failures(),
                  profile=_profile(records, passed, workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
