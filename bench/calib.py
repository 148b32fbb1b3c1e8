"""Host-speed calibration: a fixed unit of work, run between program calls.

The benchmark runs on a few cores of a shared host whose speed changes all
the time, in phases from a tenth of a second to minutes, by up to 1.8x, so
identical rounds of program calls take very different times from one run to
the next.  A calibration unit is a fixed mix of the kinds of work the program
does (interpreted Python, JSON text, numpy on small and mid-sized arrays).
It imports nothing from wslrr and allocates no large arrays, so it costs the
same on every version of the program.  ``Meter`` runs units between program
calls for a fixed share of the program time, so that the units see the same
mix of fast and slow phases as the calls, and scales the round's time by
``NOMINAL_UNIT_S`` over the units' mean time: the time the calls would have
taken on a host where one unit takes ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_UNIT_S = 0.006   # a unit's time on a fast phase of a 2-core x86 host
SHARE = 0.1              # calibration time per second of program time
INTERVAL_S = 0.25        # program time between two calibration blocks

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random(300)
_MID = _RNG.random((400, 300))
_MID1 = 1.0 + _MID
_BUF = np.empty_like(_MID)
_LIST = [round(float(v), 12) for v in _RNG.random(3000)]


def unit() -> float:
    """One fixed piece of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    d = {}
    for i in range(12000):                      # interpreted Python
        d[i % 97] = d.get(i % 97, 0) + i
        acc += (i * 7) % 13
    text = json.dumps({"draws": _LIST, "n": len(_LIST)})   # JSON text, both ways
    acc += len(json.loads(text)["draws"])
    for _ in range(120):                        # numpy call overhead on small arrays
        v = _SMALL * 1.0001 + 0.5
        acc += float(np.log(v).sum())
    np.negative(_MID, out=_BUF)                 # numpy on mid-sized arrays, in place
    np.exp(_BUF, out=_BUF)
    np.divide(_BUF, _MID1, out=_BUF)
    acc += float(_BUF.sum(axis=0).max()) + float((_BUF @ _BUF[0]).sum())
    return acc + sum(d.values())


class Calibrator:
    """Runs units on demand and keeps their wall and CPU times."""

    def __init__(self):
        unit()                                  # warm caches before the first timed unit
        self.walls, self.cpus = [], []
        self.block = 0                          # index of the last block's first unit
        self.run(SHARE)

    def run(self, budget_s: float) -> None:
        """A block of units until ``budget_s`` of wall time is spent, at least one."""
        self.block = len(self.walls)
        t_end = time.perf_counter() + budget_s
        while True:
            w0, c0 = time.perf_counter(), time.process_time()
            unit()
            w1 = time.perf_counter()
            self.walls.append(w1 - w0)
            self.cpus.append(time.process_time() - c0)
            if w1 >= t_end:
                return

    def factors(self, since: int) -> tuple:
        """(wall, CPU) scale factors from the units run since unit ``since``."""
        walls, cpus = self.walls[since:], self.cpus[since:]
        return (NOMINAL_UNIT_S * len(walls) / sum(walls),
                NOMINAL_UNIT_S * len(cpus) / sum(cpus))
