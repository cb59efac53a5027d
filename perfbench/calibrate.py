"""A fixed CPU kernel that measures how fast the machine is running right now.

On a shared VM the same drop's time moves by up to 1.5x between states that
last from seconds to many minutes (see README.md).  The child campaign runs
``calibrate()`` before every drop and once after the last one, and run.py
scales each timing by ``REFERENCE_S / <kernel time around it>``.  Timings are
then in *reference* seconds: the time on a machine state in which the kernel
takes ``REFERENCE_S``.

The kernel uses only Python and numpy, never d2dsim, so a change to d2dsim
cannot change it.  It mixes the kinds of work a drop does: interpreter loops
over dicts and lists, many small numpy calls, and broadcasts like the LOS
tests over arrays of a few hundred kB to a few MB.  Of the kernels tried, this
mix tracked the drops' speed best (README.md).
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.006  # about the kernel's median time on the 2-vCPU VM of README.md
REPEATS = 3

_rng = np.random.default_rng(12345)
_KEYS = [int(x) for x in _rng.integers(0, 1000, 3000)]
_POINTS = _rng.random((64, 2)) * 1000.0
_A = _rng.random((300, 135))
_B = _rng.random((300, 135))
_SEGMENTS = _rng.random((3000, 4)) * 1000.0
_RECTS = _rng.random((135, 4)) * 1000.0


def kernel() -> float:
    counts: dict[int, int] = {}
    for i, k in enumerate(_KEYS):
        counts[k] = counts.get(k, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    nearest = 0.0
    for k in range(60):
        x, y = _POINTS[k % len(_POINTS)]
        nearest += float(np.hypot(x - _RECTS[:, 0], y - _RECTS[:, 1]).min())
    above = int((_A[:, None, :40] > _B[None, :40, :40]).sum())
    scaled = float(np.log10(_A * _B + 1.0).sum())
    # 3000 segments x 135 rects, bounding boxes as in a LOS test
    x0, y0, x1 = _SEGMENTS[:, 0:1], _SEGMENTS[:, 1:2], _SEGMENTS[:, 2:3]
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    hit = (lo <= _RECTS[None, :, 2]) & (hi >= _RECTS[None, :, 0]) & (y0 < _RECTS[None, :, 3])
    return len(ranked) + nearest + above + scaled + int(hit.any(axis=1).sum())


def calibrate() -> float:
    """Fastest of a few kernel runs, in seconds, with the collector paused.

    The collector is paused so that garbage the program left behind cannot
    slow the kernel down and so make the program's timings look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()
