"""Calibration kernel: a fixed pure-Python job that tracks the machine's speed.

On a shared machine the speed available to one process drifts by tens of
percent over tens of seconds, and a whole run can land in a slow stretch.
The benchmark times this kernel right before and after every sample and
scales the sample by (REFERENCE_S / kernel time) ** EXPONENT, which puts it
at the speed of a machine on which the kernel takes REFERENCE_S.

The exponent is below 1 because the kernel slows more than ddnsim does when
the host is busy: on a shared 2-vCPU virtual machine, regressing log(sample time) on
log(kernel time) over a few hundred interleaved samples gave slopes of 0.55
to 0.73 for CLI invocations, in-process replays and set-ups, and scaling by
kernel ** 0.7 left the least run-to-run spread.

The kernel does not touch ddnsim, so no change to the program can move it,
and it runs with the garbage collector off, so the size of the caller's heap
does not move it either.
"""

import gc
import random
import time

# Kernel seconds on a shared 2-vCPU 2.1 GHz virtual machine when it was quiet.
REFERENCE_S = 0.05
EXPONENT = 0.7
ITEMS = 150_000


def kernel_seconds() -> float:
    """Time one run of the kernel: dict, list and tuple churn, a seeded RNG
    and a sort, the same mix of work as the simulator's replay."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(0)
        table = {}
        for i in range(ITEMS):
            key = rng.getrandbits(14)
            entry = table.get(key)
            if entry is None:
                table[key] = [i, rng.getrandbits(24), (key, i)]
            else:
                entry[0] = i
                entry[1] ^= rng.getrandbits(24)
        sorted(table.items(), key=lambda kv: (kv[1][0], kv[0]))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Speed factor for each sample, from the kernel runs on either side."""

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def factor(self) -> float:
        """Call right after a sample: the factor that scales it to the
        reference speed, from the kernel times just before and just after it."""
        self.kernels.append(kernel_seconds())
        return (REFERENCE_S / ((self.kernels[-2] + self.kernels[-1]) / 2)) ** EXPONENT
