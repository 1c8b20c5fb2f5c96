"""Host-speed calibration, so that timings read at one reference speed.

The benchmark host is a shared 2-vCPU VM.  Other tenants slow it down in
spells of a few seconds, by up to half: one solve measured 0.44 s and
0.66 s within a minute.  A fixed calibration sample, timed just before and
just after each command, slows down with it.  A command's time scaled by
``REFERENCE_S / (mean of its two samples)`` is the time it would have taken
at the reference speed.  Over ten seeds, ``wall_s`` spread 0.14-0.17
(interquartile range over median) raw and 0.04-0.08 scaled.  The sample
follows the mask walk and the table sweeps more closely than the vertex
solves, which are dominated by numpy calls.

The sample mixes the kinds of work the workloads do: a recursive
pure-Python subset walk with integer bit tests (the solver's search) and
many numpy calls on tiny arrays (its check that the distance codes of a
chosen set are distinct).  It uses no silires code, so no change to
silires changes the reference.  It runs with the garbage collector off, so
the size of the program's heap does not change it either.
"""

from __future__ import annotations

import gc
import time

# Median sample time on the reference host (2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4), measured when it was quiet.
REFERENCE_S = 0.050
_WALKS = 40
_CHECKS = 1500
_MASKS = tuple(0b111 << (3 * i) for i in range(8))


def _walk(pos: int, chosen: int, need: int, counter: list) -> None:
    if need == 0:
        counter[0] += 1
        return
    if 24 - pos < need:
        return
    reachable = chosen | ((1 << 24) - (1 << pos))
    for mask in _MASKS:
        if (mask & ~reachable).bit_count() >= 2:
            return
    _walk(pos + 1, chosen | (1 << pos), need - 1, counter)
    _walk(pos + 1, chosen, need, counter)


def _distinct_columns(np, a) -> bool:
    order = np.lexsort(a[::-1])
    s = a.T[order]
    return not bool(np.any(np.all(s[1:] == s[:-1], axis=1)))


def sample() -> float:
    """Seconds one fixed calibration sample takes now."""
    import numpy as np  # imported by silires already; not counted in set-up

    distances = np.arange(21 * 21, dtype=np.int16).reshape(21, 21) * 7 % 5
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        counter = [0]
        for _ in range(_WALKS):
            _walk(0, 0, 9, counter)
        for i in range(_CHECKS):
            _distinct_columns(np, distances[[i % 21, 3, 5, 8, 13, 17, 20]])
        elapsed = time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    return elapsed


def factor(before: float, after: float) -> float:
    """Scale for work done between two samples: reference / measured speed."""
    return REFERENCE_S / ((before + after) / 2.0)
