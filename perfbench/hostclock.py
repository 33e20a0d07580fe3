"""Host clock of the benchmark: host seconds scaled to a reference
machine speed by an interleaved calibration unit.

The benchmark shares its CPU with other tenants, and their load moves
this machine's speed by tens of percent, sometimes within a second.  A
session therefore times a short calibration unit about every
``SEGMENT_S`` of host time, between two operations.  Each stretch of
the session between two units is scaled by the reference time of a
unit over the mean of the two units around it; the units themselves
are left out.  That cancels most of the machine's speed changes and
keeps the program's: a change to the program does not touch the unit.
"""

import gc
from time import perf_counter

#: Host seconds a calibration unit takes on the reference host.
CAL_REF_S = 0.001
#: Host seconds of session between two calibration units.
SEGMENT_S = 0.05
#: Units timed on each side of a set-up probe.
SETUP_UNITS = 20


class CalibrationUnit:
    """A fixed unit of the NumPy work the program's host time goes to:
    gathers and element-wise ops on arrays of a few thousand elements
    (the simulator's per-launch planes), and a pass over a 4 MiB array
    (the memory traffic of the largest batches).  Calling it returns
    the host seconds of ``units`` units.

    The garbage collector is off during the unit: a collection's cost
    grows with the heap the program left behind, and the unit would
    time the program."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._idx = (np.arange(4096) * 2654435761) % 4096
        self._big = np.ones(1 << 20, dtype=np.float32)

    def __call__(self, units: int = 1) -> float:
        np = self._np
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(units):
                x = np.linspace(0.0, 1.0, 4096)
                for _ in range(20):
                    y = x[self._idx]
                    x = np.where(y > 0.5, y * 0.99, y + 0.01)
                np.multiply(self._big, 0.5, out=self._big)
                np.add(self._big, 1.0, out=self._big)
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class SessionClock:
    """Scaled host time of one session.

    Call :meth:`tick` between operations (it runs a unit when a segment
    is due), :meth:`add_op` with each operation's raw host seconds, and
    :meth:`stop` at the end.  :attr:`wall_s`, :attr:`op_s` and
    :attr:`raw_s` then hold the scaled session time, the scaled
    operation times and the raw session time without the units.
    """

    def __init__(self):
        self._calibrate = CalibrationUnit()
        self._unit = self._calibrate()
        self.units = [self._unit]
        self.wall_s = 0.0
        self.raw_s = 0.0
        self.op_s: list[float] = []
        self._ops: list[float] = []
        self._start = perf_counter()

    def _close_segment(self) -> None:
        raw = perf_counter() - self._start
        # A long operation makes a long segment: time more units after
        # it, so the unit's own jitter weighs no more than in short ones.
        units = max(1, round(raw / SEGMENT_S))
        unit = self._calibrate(units) / units
        scale = 2 * CAL_REF_S / (self._unit + unit)
        self.raw_s += raw
        self.wall_s += raw * scale
        self.op_s += [t * scale for t in self._ops]
        self._ops.clear()
        self._unit = unit
        self.units.append(unit)
        self._start = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self._start >= SEGMENT_S:
            self._close_segment()

    def add_op(self, seconds: float) -> None:
        self._ops.append(seconds)

    def stop(self) -> None:
        self._close_segment()
