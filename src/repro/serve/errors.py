"""Typed failures of the serving layer.

The serving layer never signals trouble with bare ``RuntimeError``
strings: a caller that wants to page on
:class:`CheckpointMismatchError` can route on the type alone.  Load
shedding is not an error at all -- the front end answers a shed
request with a :class:`~repro.serve.frontend.RequestOutcome` carrying
the typed reason.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class of serving-layer failures."""


class CheckpointMismatchError(ServeError):
    """A checkpoint file does not describe the job being resumed
    (different inputs, chunking or solver spec)."""


__all__ = ["ServeError", "CheckpointMismatchError"]
