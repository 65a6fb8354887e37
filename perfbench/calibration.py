"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of the measured CPU drifts by up to 1.8x,
from second to second and from minute to minute, with the load of other
tenants; run-to-run spreads of 30% in raw wall time hide any change to
coxkit smaller than that.  The harness therefore runs a fixed pure-Python
kernel (stdlib Fraction arithmetic, the same kind of work as coxkit's
scalar layer, sharing no code with it) in short bursts interleaved with the
queries, and reports every time scaled to a reference machine:

    reference time = measured time * REFERENCE_KERNEL_S / local kernel time

where the local kernel time comes from the bursts just before and after the
measured interval.  On a quiet machine the factor is close to 1; the raw
times are printed too.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds one kernel call takes on the reference machine (an unloaded
# two-vCPU x86-64 Xeon VM, Python 3.11).  Only ratios between runs matter;
# the constant fixes the scale of the reported numbers.
REFERENCE_KERNEL_S = 400e-6

_XS = [Fraction(7 * i + 3, 5 * i + 11) for i in range(24)]


def kernel():
    acc = Fraction(0)
    for a in _XS:
        for b in _XS[:6]:
            acc = acc + a * b
    return acc


def kernel_seconds(calls=8):
    """Seconds per kernel call, measured over a burst of calls.  The garbage
    collector is off during the burst: a collection there would cost time in
    proportion to the measured program's heap, not to the CPU's speed."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(calls):
            kernel()
        return (time.perf_counter() - t0) / calls
    finally:
        if was_enabled:
            gc.enable()


def scale(measured_s, local_kernel_s):
    """A measured time converted to reference-machine time."""
    return measured_s * REFERENCE_KERNEL_S / local_kernel_s
