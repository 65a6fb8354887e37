"""coxkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {words,closure,cone} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; coxkit is imported from its src/.  Each
measurement runs in a fresh interpreter (worker.py), one process, one
thread, one closed-loop caller.

All times are reference-machine times: measured time scaled by the
machine's current speed on a fixed calibration kernel run in bursts around
the measured intervals (calibration.py).  The raw times are printed too.

--trace 0 starts SETUP_RUNS interpreters: all but the last stop when set-up
is done, the last also runs the timed phase.  It reports the end-to-end
metrics: throughput, latency p50 and p90, set-up time (median of the
interpreters) and peak resident memory.

--trace 1 runs the timed phase twice in fresh interpreters with the same
seed, untraced and then traced (tracer.py), and reports the per-layer
metrics, including the tracing overhead.  If a trace point is missing
from coxkit the run fails (exit code 1) instead of reporting 0 for it.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Without
src/coxkit the run exits with code 2 and prints no result.
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
sys.path.insert(0, str(HERE))
from calibration import REFERENCE_KERNEL_S, kernel_seconds, scale  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("words", "closure", "cone")
SETUP_RUNS = 5
DEADLINE_S = 170


class RunFailed(Exception):
    pass


def spawn(phase, args, deadline):
    """Run one worker interpreter and return its JSON result, with its
    set-up time scaled to reference time."""
    kernel_before = kernel_seconds(16)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    launched = time.monotonic()
    timeout = deadline - launched
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{phase} worker did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{phase} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] = scale(result["setup_s"],
                              (kernel_before + result["kernel_after_setup_s"]) / 2)
    return result


def latency_metrics(result):
    lat = result["latencies_ms"]
    return {
        "throughput_ops_s": (len(lat) / result["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
    }


def report(args, run, metrics, notes):
    """Print the human-readable lines and return the result object."""
    attempted = sum(r["attempted"] for r in run)
    failed = sum(r["failed"] for r in run)
    golden = sorted({g for r in run for g in r["golden_mismatch"]})
    last = run[-1]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(last['latencies_ms'])} latency samples")
    print("inputs " + json.dumps(last["profile"], sort_keys=True))
    for r in run:
        for reason in r["failures"]:
            print("failure " + reason)
    if golden:
        print("failure reference canonical words differ from the recorded ones in "
              + ", ".join(golden))
    for r in run:
        print(f"raw {len(r['latencies_ms']) / r['raw_busy_s']:.4g} queries/s; "
              f"calibration kernel {r['kernel_s'] * 1e6:.1f} us "
              f"(reference {REFERENCE_KERNEL_S * 1e6:.0f} us)")
    for line in notes:
        print(line)
    print(f"error_rate {failed / max(attempted, 1):.6f} ({failed} of {attempted} queries)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0 and not golden, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coxkit" / "__init__.py").is_file():
        print(f"no coxkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    notes = []
    try:
        if args.trace:
            plain = spawn("measure", args, deadline)
            traced = spawn("trace", args, deadline)
            if traced["skipped"]:
                raise RunFailed("trace points missing from coxkit: "
                                + ", ".join(traced["skipped"]))
            run = [plain, traced]
            per_layer = dict(traced["per_layer"])
            per_layer["trace.overhead_ratio"] = (
                latency_metrics(plain)["throughput_ops_s"][0]
                / latency_metrics(traced)["throughput_ops_s"][0])
            metrics = {name: (per_layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        else:
            setups = [spawn("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
            measured = spawn("measure", args, deadline)
            setups.append(measured)
            run = [measured]
            metrics = latency_metrics(measured)
            metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
            notes.append("raw setup_s " + " ".join(f"{s['raw_setup_s']:.4f}" for s in setups))
            metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, run, metrics, notes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
