"""Machine-speed calibration: fixed code that never changes with the program.

The shared host this benchmark was built on changes speed, in bursts and
in regimes lasting minutes, and the slowdown differs from one kind of code
to another; no steal time is recorded.  These three kernels (interpreter
loop, 45-digit decimal arithmetic, small numpy arrays: the instruction mix of
vnag's hot paths) run right before every operation and every set-up, and
each measured time is divided by the kernels' time just before it.  The
program's own speed-ups pass through unchanged, because the kernels do not
call vnag; the machine's speed at that moment largely cancels.
"""
from __future__ import annotations

import time
from decimal import Decimal, localcontext

import numpy as np

# one pass over the kernels on the reference machine (2-vCPU VM, Python
# 3.11.7, numpy 2.4.6) in its fast regime, so scaled times read in its seconds
REFERENCE_S = 0.0150


def _interpreter():
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _decimal():
    with localcontext() as ctx:
        ctx.prec = 45
        x = Decimal(1)
        up, down = Decimal("1.0000001"), Decimal("1.00000005")
        for _ in range(5000):
            x = x * up / down
    return x


def _numpy():
    y = np.zeros(4)
    for _ in range(3000):
        y = np.concatenate((y[2:], -0.5 * y[2:] - y[:2]))
    return y


KERNELS = (_interpreter, _decimal, _numpy)


def calibrate() -> tuple:
    """(wall, cpu) seconds of one pass over the kernels."""
    w0, c0 = time.perf_counter(), time.process_time()
    for kernel in KERNELS:
        kernel()
    return time.perf_counter() - w0, time.process_time() - c0
