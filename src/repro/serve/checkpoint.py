"""JSONL job checkpoints: kill a long run, resume without recompute.

Format (one JSON object per line, append-only):

* ``{"type": "header", ...}`` -- job identity: id, chunking, solver
  spec and an input digest.  Resume refuses a file whose digest does
  not match the job being resumed
  (:class:`~repro.serve.errors.CheckpointMismatchError`).
* ``{"type": "chunk", ...}`` -- one completed chunk: status, serving
  device, modeled times, the solution rows (hex-encoded raw bytes, so
  restoration is bitwise) and their digest.
* ``{"type": "state", "after_chunk": k, ...}`` -- scheduler state at a
  checkpoint barrier: the job's start and ready (commit/arrival) times,
  the modeled-time frontier, per-device modeled clocks, the CPU-chain
  clock and the :class:`~repro.serve.health.HealthMonitor` snapshot
  (circuits and lifecycle).  Version 2 added the job's start and ready
  times; a version-1 file cannot resume on the job's own timeline and
  is rejected like any other mismatch.

Chunk lines are buffered and written *together with* the state line
every ``checkpoint_every`` chunks, so the file is always a prefix of
consistent blocks.  On resume, anything after the last complete
``state`` line is ignored (it describes chunks whose scheduling
context was lost with the kill), and a torn final line -- the normal
signature of a killed process -- is dropped silently.  Because chunk
fault plans are derived per ``(device, job, chunk, attempt)`` (see
:mod:`repro.gpusim.pool`) and the suffix runs from the job's original
start, the recomputed suffix is bitwise identical to what the
uninterrupted run would have produced, at any kill point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import CheckpointMismatchError
from .job import ChunkAttempt, ChunkRecord, SolveJob

FORMAT_VERSION = 2


def _chunk_line(record: ChunkRecord, x: np.ndarray) -> dict:
    doc = record.to_dict()
    doc["type"] = "chunk"
    doc["dtype"] = str(x.dtype)
    doc["shape"] = list(x.shape)
    doc["x_hex"] = np.ascontiguousarray(x).tobytes().hex()
    return doc


def _chunk_from_line(doc: dict) -> tuple[ChunkRecord, np.ndarray]:
    x = np.frombuffer(bytes.fromhex(doc["x_hex"]),
                      dtype=np.dtype(doc["dtype"]))
    x = x.reshape(doc["shape"]).copy()
    record = ChunkRecord(
        chunk_id=int(doc["chunk_id"]), status=doc["status"],
        device=doc["device"],
        attempts=[ChunkAttempt(device=a["device"], outcome=a["outcome"],
                               modeled_ms=a["modeled_ms"],
                               backoff_ms=a["backoff_ms"])
                  for a in doc.get("attempts", [])],
        start_ms=float(doc["start_ms"]), end_ms=float(doc["end_ms"]),
        modeled_ms=float(doc["modeled_ms"]), digest=doc["digest"])
    return record, x


class CheckpointWriter:
    """Append-only JSONL writer for one job's checkpoints."""

    def __init__(self, path: str, job: SolveJob, *, resume: bool = False):
        self.path = path
        self._buffer: list[dict] = []
        mode = "a" if (resume and os.path.exists(path)) else "w"
        self._fh: IO[str] = open(path, mode)
        if mode == "w":
            self._write_line({
                "type": "header", "version": FORMAT_VERSION,
                "job_id": job.job_id, "input_digest": job.input_digest(),
                "num_chunks": job.num_chunks, "chunk_size": job.chunk_size,
                "num_systems": job.systems.num_systems, "n": job.systems.n,
                "method": job.method,
            })
            self._fh.flush()

    def _write_line(self, doc: dict) -> None:
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")

    def add_chunk(self, record: ChunkRecord, x: np.ndarray) -> None:
        """Buffer one completed chunk (persisted at the next barrier)."""
        self._buffer.append(_chunk_line(record, x))

    def barrier(self, after_chunk: int, *, start_ms: float,
                ready_ms: float, now_ms: float,
                device_clocks: dict[str, float], cpu_clock_ms: float,
                health: dict) -> None:
        """Flush buffered chunks plus one consistent state line."""
        for doc in self._buffer:
            self._write_line(doc)
        self._buffer.clear()
        self._write_line({
            "type": "state", "after_chunk": after_chunk,
            "start_ms": start_ms, "ready_ms": ready_ms, "now_ms": now_ms,
            "device_clocks": device_clocks, "cpu_clock_ms": cpu_clock_ms,
            "health": health,
        })
        self._fh.flush()

    def close(self) -> None:
        # Buffered-but-unflushed chunks are dropped on purpose: without
        # a state line they could not be resumed consistently anyway.
        self._fh.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ResumeState:
    """What a checkpoint restores: results + scheduler state."""

    after_chunk: int = -1     #: last chunk covered by a state line
    start_ms: float = 0.0     #: the job's start on the modeled clock
    ready_ms: float = 0.0     #: its commit/arrival time (queue wait)
    now_ms: float = 0.0
    device_clocks: dict[str, float] = field(default_factory=dict)
    cpu_clock_ms: float = 0.0
    health: dict = field(default_factory=dict)  #: HealthMonitor state
    #: chunk_id -> (record, solution rows), bitwise as written
    chunks: dict[int, tuple[ChunkRecord, np.ndarray]] = \
        field(default_factory=dict)


def load_checkpoint(path: str, job: SolveJob) -> ResumeState:
    """Parse a checkpoint for ``job``; raises
    :class:`~repro.serve.errors.CheckpointMismatchError` on a file that
    describes different inputs or chunking.  Tolerates a torn final
    line and ignores chunk lines past the last state barrier."""
    docs: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError:
                break     # torn tail from a kill; everything after is gone
    if not docs or docs[0].get("type") != "header":
        raise CheckpointMismatchError(
            f"{path}: not a serve checkpoint (missing header)")
    header = docs[0]
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported checkpoint version "
            f"{header.get('version')!r}")
    if header.get("input_digest") != job.input_digest():
        raise CheckpointMismatchError(
            f"{path}: checkpoint was written for different job inputs or "
            f"spec (job {header.get('job_id')!r})")

    state = ResumeState()
    last_state_pos = max((i for i, d in enumerate(docs)
                          if d.get("type") == "state"), default=None)
    if last_state_pos is None:
        return state
    st = docs[last_state_pos]
    state.after_chunk = int(st["after_chunk"])
    state.start_ms = float(st["start_ms"])
    state.ready_ms = float(st["ready_ms"])
    state.now_ms = float(st["now_ms"])
    state.device_clocks = {k: float(v)
                           for k, v in st["device_clocks"].items()}
    state.cpu_clock_ms = float(st["cpu_clock_ms"])
    state.health = dict(st["health"])
    for doc in docs[1:last_state_pos]:
        if doc.get("type") != "chunk":
            continue
        record, x = _chunk_from_line(doc)
        state.chunks[record.chunk_id] = (record, x)
    return state


class ShedLedger:
    """Durable record of shed front-end requests under overload.

    One JSONL line per shed decision, written (and flushed) the moment
    the front end sheds, so a kill immediately after a shed still
    leaves the decision on disk.  On ``--resume`` the front end loads
    the ledger and *replays* every recorded shed instead of
    re-admitting the request -- a request the service already turned
    away must stay turned away, or the resumed run would double-serve
    capacity the original run never granted.

    The ledger is idempotent per request id: replayed sheds are not
    re-appended, so resuming N times leaves one line per decision.
    """

    FILENAME = "frontend_shed.jsonl"

    def __init__(self, path: str, *, resume: bool = False):
        self.path = path
        self._seen: dict[str, dict] = {}
        if resume and os.path.exists(path):
            self._seen = self._load(path)
        mode = "a" if resume and os.path.exists(path) else "w"
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh: IO[str] = open(path, mode, encoding="utf-8")
        if mode == "w":
            self._fh.write(json.dumps(
                {"type": "shed_header", "version": FORMAT_VERSION},
                sort_keys=True) + "\n")
            self._fh.flush()

    @staticmethod
    def _load(path: str) -> dict[str, dict]:
        """The recorded sheds; raises
        :class:`~repro.serve.errors.CheckpointMismatchError` on a ledger
        whose header is not this :data:`FORMAT_VERSION`."""
        out: dict[str, dict] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue          # torn tail from a kill mid-write
                if doc.get("type") == "shed_header" \
                        and doc.get("version") != FORMAT_VERSION:
                    raise CheckpointMismatchError(
                        f"{path}: unsupported shed ledger version "
                        f"{doc.get('version')!r}")
                if doc.get("type") == "shed":
                    out[doc["request_id"]] = doc
        return out

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._seen

    def reason_for(self, request_id: str) -> str | None:
        doc = self._seen.get(request_id)
        return None if doc is None else doc.get("reason")

    def shed_ids(self) -> list[str]:
        return sorted(self._seen)

    def record(self, request_id: str, *, tenant: str, cls: str,
               reason: str, at_ms: float) -> None:
        """Persist one shed decision (idempotent per request id)."""
        if request_id in self._seen:
            return
        doc = {"type": "shed", "request_id": request_id,
               "tenant": tenant, "cls": cls, "reason": reason,
               "at_ms": at_ms}
        self._seen[request_id] = doc
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
