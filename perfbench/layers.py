"""Per-layer host self time, measured from outside the program.

The traced run wraps the public entry points of each layer (a method
on a class, or a module function together with every ``repro`` module
that imported it by name) and records one span per call: layer, start,
end and the enclosing span.  A layer's *self* time is the duration of
its spans minus the part covered by their child spans, so the self
times of all layers plus the time spent outside every span add up to
the traced wall time exactly.

An entry point that no longer exists (a later refactor moved it) is
skipped and listed in :attr:`Tracer.missing`; its layer then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: ``(layer, module, qualified name)`` of every wrapped entry point.
ENTRY_POINTS = (
    ("frontend", "repro.serve.frontend", "ServeFrontend.offer"),
    ("frontend", "repro.serve.frontend", "ServeFrontend.dispatch_once"),
    ("scheduler", "repro.serve.scheduler", "BatchScheduler.run_job"),
    # Admission prices every offer through the scheduler's estimate;
    # the analytic estimator runs beneath it on a shape miss.
    ("estimator", "repro.serve.scheduler", "BatchScheduler.estimate_job_ms"),
    ("estimator", "repro.gpusim.estimator", "estimate_ms"),
    ("health", "repro.serve.health", "HealthMonitor.maybe_readmit"),
    ("health", "repro.serve.health", "HealthMonitor.observe_attempt"),
    ("resilience", "repro.resilience.pipeline", "robust_solve"),
    ("checkpoint", "repro.serve.checkpoint", "CheckpointWriter.__init__"),
    ("checkpoint", "repro.serve.checkpoint", "CheckpointWriter.add_chunk"),
    ("checkpoint", "repro.serve.checkpoint", "CheckpointWriter.barrier"),
    ("checkpoint", "repro.serve.checkpoint", "CheckpointWriter.close"),
    ("checkpoint", "repro.serve.checkpoint", "ShedLedger.record"),
    ("kernels", "repro.kernels.api", "run_kernel"),
    ("costmodel", "repro.gpusim.costmodel", "CostModel.report"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager around the traced session; spans are kept
    in memory and folded into per-layer totals by :meth:`summary`.
    """

    def __init__(self):
        #: One ``[layer, start, end, parent index]`` per call.
        self.spans: list[list] = []
        #: Per layer, calls not nested inside a call of the same layer.
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack, active, calls = (self.spans, self._stack,
                                       self._active, self.calls)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[layer]:
                calls[layer] += 1
            active[layer] += 1
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                active[layer] -= 1
        return traced

    def __enter__(self) -> "Tracer":
        for layer, modname, qualname in ENTRY_POINTS:
            try:
                module = importlib.import_module(modname)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}:{qualname}")
                continue
            wrapped = self._wrap(layer, original)
            if owner_name:
                self._patch(owner, attr, original, wrapped)
                continue
            # A module function is also bound by name wherever it was
            # imported with ``from ... import``; patch every binding.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self, wall_s: float) -> dict:
        """Per-layer self seconds and calls, the time outside every span,
        and the check that the parts add up to ``wall_s``."""
        if self._stack:
            raise RuntimeError("summary() called with spans still open")
        self_s = {layer: 0.0 for layer in LAYERS}
        durations = [end - start for _, start, end, _ in self.spans]
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent < 0:
                top_s += dur
            else:
                child_s[parent] += dur
        for (layer, _, _, _), dur, inner in zip(self.spans, durations,
                                                child_s):
            self_s[layer] += dur - inner
        unattributed_s = wall_s - top_s
        total = sum(self_s.values()) + unattributed_s
        if unattributed_s < 0 or abs(total - wall_s) > 1e-9 * max(wall_s, 1):
            raise RuntimeError(
                f"layer self times ({sum(self_s.values()):.6f} s) plus "
                f"unattributed ({unattributed_s:.6f} s) do not add up to "
                f"the traced wall ({wall_s:.6f} s)")
        return {"self_s": self_s, "calls": dict(self.calls),
                "unattributed_s": unattributed_s}
