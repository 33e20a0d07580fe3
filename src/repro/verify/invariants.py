"""Architectural invariant checker: analytic expectations vs traces.

The paper's algorithm descriptions (§4, Table 1) pin down *exactly*
what each kernel must do architecturally: CR takes ``2 log2(n) - 1``
algorithmic steps, its stride-``2^k`` forward steps suffer escalating
bank conflicts (Fig 9), the staged kernels issue one coalesced
transaction per 16-word segment, PCR is conflict-free, and so on.
This module recomputes those expectations **independently** -- from
the algorithms' index patterns, with its own bank/segment arithmetic
-- and diffs them against the :class:`~repro.gpusim.counters.CounterLedger`
a real simulated launch records.  A drift between the two means either
the kernel or the cost model changed behaviour; both are regressions
the numeric tests cannot see.

Checked per kernel and size (exact equality):

* ``steps`` and ``syncs`` -- the loop structure;
* ``shared_words`` / ``shared_instructions`` -- access counts (the
  paper's Table 1 column);
* ``shared_cycles`` -- bank-conflict-serialized access slots, both in
  total and *per CR forward-reduction step* (the stride-``2^k``
  conflict escalation);
* ``global_words`` / ``global_transactions`` -- the 5n-word global
  footprint and its 64-byte-segment coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim import GTX280, DeviceSpec
from repro.kernels.cr_kernel import PHASE_FORWARD as CR_PHASE_FORWARD
from repro.kernels.hybrid_kernel import PHASE_CR_FORWARD
from repro.solvers.hybrid import default_intermediate_size

#: Kernels under invariant contract (the five registry solvers).
INVARIANT_KERNELS = ("cr", "pcr", "rd", "cr_pcr", "cr_rd")

#: Default power-of-two sweep (the acceptance range).
DEFAULT_SIZES = (8, 16, 32, 64, 128, 256, 512)

#: Counters checked for exact equality against the trace.
CHECKED_COUNTERS = ("steps", "syncs", "shared_words", "shared_cycles",
                    "shared_instructions", "global_words",
                    "global_transactions")


def _log2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


class _Tally:
    """Independent re-derivation of the cost model's arithmetic.

    Deliberately *not* built on :mod:`repro.gpusim`: same hardware
    rules (16 banks, half-warp granularity, 64-byte segments -- read
    from the device spec), separate implementation, so a bug in the
    simulator's accounting cannot cancel out in the comparison.
    """

    def __init__(self, device: DeviceSpec):
        self.group = device.conflict_granularity
        self.banks = device.shared_mem_banks
        self.seg_words = device.coalesce_segment_bytes // device.bank_width_bytes
        self.c = {name: 0 for name in CHECKED_COUNTERS}
        self.forward_step_cycles: list[int] = []

    # -- hardware arithmetic (independent reimplementation) ------------

    def _bank_cycles(self, addrs: np.ndarray,
                     lanes: np.ndarray) -> tuple[int, int]:
        """Conflict-serialized cycles and half-warp count, vectorized.

        Encodes each access as a (half-warp, bank, address) triple,
        deduplicates, and takes the per-half-warp maximum of distinct
        addresses per bank.  Must stay equal to
        :meth:`_reference_bank_cycles` (the original per-group loops,
        property-tested against this in
        ``tests/verify/test_invariant_tally.py``).
        """
        if addrs.size == 0:
            return 0, 0
        g = lanes // self.group
        bank = addrs % self.banks
        span = int(addrs.max()) + 1
        triple = (g * self.banks + bank) * span + addrs
        uniq = np.unique(triple)                 # distinct (g, bank, addr)
        gb, counts = np.unique(uniq // span, return_counts=True)
        g_of = gb // self.banks                  # sorted, nondecreasing
        starts = np.flatnonzero(np.r_[True, g_of[1:] != g_of[:-1]])
        worst = np.maximum.reduceat(counts, starts)
        return int(worst.sum()), int(starts.size)

    def _reference_bank_cycles(self, addrs: np.ndarray,
                               lanes: np.ndarray) -> tuple[int, int]:
        """Per-half-warp loop oracle for :meth:`_bank_cycles`."""
        cycles = halfwarps = 0
        for g in np.unique(lanes // self.group):
            group = addrs[lanes // self.group == g]
            halfwarps += 1
            worst = 1
            banks = group % self.banks
            for b in np.unique(banks):
                worst = max(worst, np.unique(group[banks == b]).size)
            cycles += int(worst)
        return cycles, halfwarps

    def _transactions(self, idx: np.ndarray) -> int:
        """64-byte-segment transactions per half-warp chunk, vectorized.

        Must stay equal to :meth:`_reference_transactions`.
        """
        if idx.size == 0:
            return 0
        seg = idx // self.seg_words
        chunk = np.arange(idx.size, dtype=np.int64) // self.group
        pair = chunk * (int(seg.max()) + 1) + seg
        return int(np.unique(pair).size)

    def _reference_transactions(self, idx: np.ndarray) -> int:
        """Chunked loop oracle for :meth:`_transactions`."""
        total = 0
        for start in range(0, idx.size, self.group):
            total += int(np.unique(idx[start:start + self.group]
                                   // self.seg_words).size)
        return total

    # -- access-schedule recording --------------------------------------

    def sh(self, base: int, idx, lanes) -> None:
        """One shared-memory access instruction (load or store)."""
        idx = np.asarray(idx, dtype=np.int64)
        lanes = np.asarray(lanes, dtype=np.int64)
        cycles, hw = self._bank_cycles(base + idx, lanes)
        self.c["shared_words"] += idx.size
        self.c["shared_cycles"] += cycles
        self.c["shared_instructions"] += hw

    def gl(self, idx) -> None:
        """One global-memory access instruction."""
        idx = np.asarray(idx, dtype=np.int64)
        self.c["global_words"] += idx.size
        self.c["global_transactions"] += self._transactions(idx)

    def sync(self) -> None:
        self.c["syncs"] += 1

    def step(self) -> None:
        self.c["steps"] += 1


# ----------------------------------------------------------------------
# Shared schedule fragments (mirroring the paper's algorithm structure)
# ----------------------------------------------------------------------

def _stage(t: _Tally, n: int, threads: int, elems: int,
           bases=(0, 1, 2, 3)) -> None:
    """Coalesced staging of a, b, c, d into shared memory."""
    lanes = np.arange(threads)
    for arr in bases:
        for chunk in range(elems):
            idx = lanes + chunk * threads
            t.gl(idx)
            t.sh(arr * n, idx, lanes)
    t.sync()


def _store(t: _Tally, n: int, threads: int, elems: int,
           x_base: int) -> None:
    lanes = np.arange(threads)
    for chunk in range(elems):
        idx = lanes + chunk * threads
        t.sh(x_base, idx, lanes)
        t.gl(idx)


def _cr_forward(t: _Tally, n: int, steps: int, bases,
                record: bool = False) -> None:
    """CR forward reduction: the stride-2^k conflict generator."""
    stride = 1
    for _ in range(steps):
        stride *= 2
        before = t.c["shared_cycles"]
        k = np.arange(n // stride)
        i = stride * (k + 1) - 1
        s = stride // 2
        left = i - s
        right = np.minimum(i + s, n - 1)
        for pat in (i, left, right):
            for b in bases[:4]:
                t.sh(b, pat, k)
        for b in bases[:4]:
            t.sh(b, i, k)
        t.sync()
        t.step()
        if record:
            t.forward_step_cycles.append(t.c["shared_cycles"] - before)


def _cr_backward(t: _Tally, n: int, first_stride: int, bases) -> None:
    ba, bb, bc, bd, bx = bases
    stride = first_stride
    while stride > 1:
        half = stride // 2
        k = np.arange(n // stride)
        i = half - 1 + stride * k
        left = np.maximum(i - half, 0)
        right = i + half
        for b in (ba, bb, bc, bd):
            t.sh(b, i, k)
        t.sh(bx, left, k)
        t.sh(bx, right, k)
        t.sh(bx, i, k)
        t.sync()
        t.step()
        stride //= 2


def _solve_two(t: _Tally, i1: int, i2: int, bases) -> None:
    """The serial 2x2 solve (one thread)."""
    ba, bb, bc, bd, bx = bases
    one = np.array([0])
    for b, i in ((bb, i1), (bc, i1), (bd, i1), (ba, i2), (bb, i2), (bd, i2)):
        t.sh(b, one + i, one)
    t.sh(bx, one + i1, one)
    t.sh(bx, one + i2, one)
    t.sync()
    t.step()


def _pcr_forward(t: _Tally, m: int, steps: int, bases, lanes=None) -> None:
    lanes = np.arange(m) if lanes is None else lanes
    i = np.arange(m)
    stride = 1
    for _ in range(steps):
        left = np.maximum(i - stride, 0)
        right = np.minimum(i + stride, m - 1)
        for pat in (i, left, right):
            for b in bases[:4]:
                t.sh(b, pat, lanes)
        t.sync()
        for b in bases[:4]:
            t.sh(b, i, lanes)
        t.sync()
        t.step()
        stride *= 2


def _pcr_solve_two(t: _Tally, m: int, bases, x_base: int,
                   out_index=None) -> None:
    half = m // 2
    ba, bb, bc, bd = bases[:4]
    lanes = np.arange(half)
    i1, i2 = lanes, lanes + half
    for b, i in ((bb, i1), (bc, i1), (bd, i1), (ba, i2), (bb, i2), (bd, i2)):
        t.sh(b, i, lanes)
    o1 = i1 if out_index is None else out_index(i1)
    o2 = i2 if out_index is None else out_index(i2)
    t.sh(x_base, o1, lanes)
    t.sh(x_base, o2, lanes)
    t.sync()
    t.step()


def _rd_scan(t: _Tally, m: int, row_bases) -> None:
    stride = 1
    while stride < m:
        lanes = np.arange(stride, m)
        i, j = lanes, lanes - stride
        for b in row_bases:
            t.sh(b, i, lanes)
        for b in row_bases:
            t.sh(b, j, lanes)
        t.sync()
        for b in row_bases:
            t.sh(b, i, lanes)
        t.sync()
        t.step()
        stride *= 2


def _rd_eval(t: _Tally, m: int, row_bases, sx0_base: int, store_x) -> None:
    one = np.array([0])
    t.sh(row_bases[0], one + (m - 1), one)
    t.sh(row_bases[2], one + (m - 1), one)
    t.sh(sx0_base, one, one)
    t.sync()
    lanes = np.arange(m)
    t.sh(sx0_base, np.zeros(m, dtype=np.int64), lanes)  # broadcast
    prev = np.maximum(lanes - 1, 0)
    t.sh(row_bases[0], prev, lanes)
    t.sh(row_bases[2], prev, lanes)
    store_x(lanes)
    t.sync()
    t.step()


# ----------------------------------------------------------------------
# Per-kernel analytic schedules
# ----------------------------------------------------------------------

def _expect_cr(t: _Tally, n: int) -> None:
    levels = _log2(n)
    bases = (0, n, 2 * n, 3 * n, 4 * n)
    _stage(t, n, n // 2, 2)
    _cr_forward(t, n, levels - 1, bases, record=True)
    _solve_two(t, *((0, 1) if n == 2 else (n // 2 - 1, n - 1)), bases)
    _cr_backward(t, n, n // 2, bases)
    _store(t, n, n // 2, 2, x_base=4 * n)


def _expect_pcr(t: _Tally, n: int) -> None:
    levels = _log2(n)
    bases = (0, n, 2 * n, 3 * n, 4 * n)
    _stage(t, n, n, 1)
    _pcr_forward(t, n, levels - 1, bases)
    _pcr_solve_two(t, n, bases, x_base=4 * n)
    _store(t, n, n, 1, x_base=4 * n)


def _expect_rd(t: _Tally, n: int) -> None:
    rows = tuple(j * n for j in range(6))
    sx0 = 6 * n
    lanes = np.arange(n)
    for _ in range(4):                    # a, b, c, d straight to registers
        t.gl(lanes)
    for b in rows:
        t.sh(b, lanes, lanes)
    t.sync()
    t.step()
    _rd_scan(t, n, rows)
    _rd_eval(t, n, rows, sx0, store_x=lambda i: t.gl(i))


def _surviving(n: int, m: int) -> np.ndarray:
    stride = n // m
    return stride * (np.arange(m, dtype=np.int64) + 1) - 1


def _expect_cr_pcr(t: _Tally, n: int, m: int) -> None:
    ln, lm = _log2(n), _log2(m)
    main = (0, n, 2 * n, 3 * n, 4 * n)
    inner = tuple(5 * n + j * m for j in range(4))
    surv = _surviving(n, m)
    _stage(t, n, n // 2, 2)
    _cr_forward(t, n, ln - lm, main, record=True)
    k = np.arange(m)                       # copy to unit-stride arrays
    for b_main, b_int in zip(main[:4], inner):
        t.sh(b_main, surv[k], k)
        t.sh(b_int, k, k)
    t.sync()
    t.step()
    _pcr_forward(t, m, lm - 1, inner)
    _pcr_solve_two(t, m, inner, x_base=4 * n, out_index=lambda i: surv[i])
    _cr_backward(t, n, n // m, main)
    _store(t, n, n // 2, 2, x_base=4 * n)


def _expect_cr_rd(t: _Tally, n: int, m: int) -> None:
    ln, lm = _log2(n), _log2(m)
    main = (0, n, 2 * n, 3 * n, 4 * n)
    rows = tuple(5 * n + j * m for j in range(6))
    sx0 = 5 * n + 6 * m
    surv = _surviving(n, m)
    _stage(t, n, n // 2, 2)
    _cr_forward(t, n, ln - lm, main, record=True)
    k = np.arange(m)                       # fused copy + matrix setup
    for b_main in main[:4]:
        t.sh(b_main, surv[k], k)
    for b in rows:
        t.sh(b, k, k)
    t.sync()
    t.step()
    _rd_scan(t, m, rows)
    _rd_eval(t, m, rows, sx0,
             store_x=lambda i: t.sh(4 * n, surv[i], i))
    _cr_backward(t, n, n // m, main)
    _store(t, n, n // 2, 2, x_base=4 * n)


_EXPECT = {"cr": _expect_cr, "pcr": _expect_pcr, "rd": _expect_rd,
           "cr_pcr": _expect_cr_pcr, "cr_rd": _expect_cr_rd}

#: Phase holding the stride-2^k CR forward steps, per kernel.
_FORWARD_PHASE = {"cr": CR_PHASE_FORWARD, "cr_pcr": PHASE_CR_FORWARD,
                  "cr_rd": PHASE_CR_FORWARD}


def expected_counters(kernel: str, n: int, intermediate_size: int | None = None,
                      device: DeviceSpec = GTX280) -> dict:
    """Analytic per-block counter expectations for one kernel at size n.

    Returns the :data:`CHECKED_COUNTERS` totals plus
    ``forward_step_shared_cycles`` -- the expected bank-conflict cycles
    of each stride-2^k CR forward step (empty for PCR/RD, which are
    conflict-free by construction: their totals satisfy
    ``shared_cycles == shared_instructions``).
    """
    if kernel not in _EXPECT:
        raise ValueError(f"no invariant schedule for kernel {kernel!r}; "
                         f"available: {sorted(_EXPECT)}")
    t = _Tally(device)
    if kernel in ("cr_pcr", "cr_rd"):
        m = (default_intermediate_size(n, kernel.split("_")[1])
             if intermediate_size is None else int(intermediate_size))
        _EXPECT[kernel](t, n, m)
    else:
        _EXPECT[kernel](t, n)
    out = dict(t.c)
    out["forward_step_shared_cycles"] = list(t.forward_step_cycles)
    return out


# ----------------------------------------------------------------------
# Checking traces against the expectations
# ----------------------------------------------------------------------

@dataclass
class InvariantMismatch:
    kernel: str
    n: int
    counter: str
    expected: object
    actual: object

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "n": self.n, "counter": self.counter,
                "expected": self.expected, "actual": self.actual}

    def __str__(self) -> str:
        return (f"{self.kernel} n={self.n}: {self.counter} expected "
                f"{self.expected}, trace recorded {self.actual}")


@dataclass
class InvariantReport:
    checked: int = 0
    mismatches: list[InvariantMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checked": self.checked,
                "mismatches": [m.to_dict() for m in self.mismatches]}

    def summary(self) -> str:
        head = (f"invariant check: {self.checked} kernel/size cells, "
                f"{len(self.mismatches)} mismatches")
        return "\n".join([head] + [f"  MISMATCH {m}" for m in self.mismatches])


def check_invariants(sizes=DEFAULT_SIZES, kernels=INVARIANT_KERNELS,
                     num_systems: int = 2, seed: int = 0,
                     device: DeviceSpec = GTX280,
                     progress=None) -> InvariantReport:
    """Trace every kernel at every size and diff trace vs analysis.

    Counters are per block and data-independent, so the traces come
    from the analytic fast path
    (:func:`repro.gpusim.estimator.analytic_launch`, bitwise-identical
    ledgers to a traced launch -- its own contract, enforced by
    ``tests/gpusim/test_estimator.py``); ``num_systems``/``seed`` are
    retained for signature compatibility (the solution content never
    entered this check -- it is the differential harness's job).
    """
    from repro.gpusim.estimator import analytic_launch

    report = InvariantReport()
    for n in sizes:
        for kernel in kernels:
            expect = expected_counters(kernel, n, device=device)
            result = analytic_launch(kernel, n, device=device)
            total = result.ledger.total()
            report.checked += 1
            for counter in CHECKED_COUNTERS:
                actual = int(getattr(total, counter))
                if actual != expect[counter]:
                    report.mismatches.append(InvariantMismatch(
                        kernel, n, counter, expect[counter], actual))
            phase = _FORWARD_PHASE.get(kernel)
            if phase is not None:
                actual_steps = [int(pc.shared_cycles) for pc in
                                result.ledger.steps_in_phase(phase)]
                if actual_steps != expect["forward_step_shared_cycles"]:
                    report.mismatches.append(InvariantMismatch(
                        kernel, n, "forward_step_shared_cycles",
                        expect["forward_step_shared_cycles"], actual_steps))
            if progress is not None:
                progress(kernel, n)
    return report
