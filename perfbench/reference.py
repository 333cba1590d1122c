"""A fixed piece of Python work that measures how fast the CPU runs right now.

The host this benchmark was defined on gives each process a CPU that
switches between a fast state and states up to twice as slow (other
tenants on the same core), and a state can last from a fraction of a
second to about a minute, longer than some runs.  Timed next to the
program, this work reads the same slowdown, and the time metrics divide it
out.  It uses only the standard library and nothing of the program, so a
change to the program cannot change its cost.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# Seconds the work took on average over a run on the host that defined the
# benchmark (Intel Xeon VM, 2 vCPUs, Python 3.11.7; 4.1-5.9 ms over six
# runs).  Corrected times are in seconds at the speed at which the work
# takes this long.
NOMINAL_S = 0.005

_rng = random.Random(0)
_KEYS = [(_rng.randrange(1000), f"s{_rng.randrange(1000)}", _rng.randrange(50)) for _ in range(3000)]
del _rng


def reference_seconds() -> float:
    """Time one round of dict, tuple, sort and set work like the program's.

    The cyclic collector is held off while it runs, so that the number of
    objects the program keeps alive does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        groups: dict[tuple[int, str], list[int]] = {}
        for key in _KEYS:
            groups.setdefault(key[:2], []).append(key[2])
        ordered = sorted(groups.items())
        frozenset(tuple(values) for _key, values in ordered)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
