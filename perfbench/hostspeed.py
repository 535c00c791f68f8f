"""Host-speed reference: a fixed kernel timed next to every op.

On a shared virtual machine the same code runs at a speed that drifts
with the load of other tenants. One batch-1 decode request took 150 ms in
one ten-second window and 240 ms in the next, in CPU time as much as in
wall time. Over six minutes of one fixed stream of requests, the medians
of 30-second blocks spread by 12% (quartile distance over median), and
60-second blocks by as much, because the drift lasts minutes.

So a timed op or set-up probe is bracketed by runs of this kernel, and
`corrected` gives its time at a reference host speed: the time times
`REFERENCE_S` over the mean of the two kernel times around it. The kernel
is the kind of work that batch-1 decode and set-up do: many small
products, a normalisation and a softmax on one row, driven from Python.
On the same six minutes the corrected medians spread by 3.4%. It is the
benchmark's own code and never calls the library, so a change to the
library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the 2-core x86_64 VM where the bounds were
# set, so that corrected times read as seconds on that machine.
REFERENCE_S = 0.004

_rng = np.random.default_rng(0)
_ROW = _rng.standard_normal((1, 64))
_W = 0.1 * _rng.standard_normal((64, 64))
_KEYS = _rng.standard_normal((40, 64))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    x = _ROW
    for _ in range(150):
        h = x @ _W
        h = h / np.sqrt((h * h).mean(-1, keepdims=True) + 1e-6)
        s = h @ _KEYS.T
        s = np.exp(s - s.max())
        x = (s / s.sum()) @ _KEYS + _ROW
    return time.perf_counter() - t0


def first_bracket() -> float:
    """Warm the kernel up, then time the run that precedes the first op."""
    kernel_seconds()
    return kernel_seconds()


def corrected(op_seconds: list[float], kernel: list[float]) -> list[float]:
    """Op times at the reference host speed.

    `kernel[i]` and `kernel[i + 1]` are the kernel runs just before and
    just after op i.
    """
    return [s * 2 * REFERENCE_S / (kernel[i] + kernel[i + 1])
            for i, s in enumerate(op_seconds)]
