"""The session journal: kill a serve run, resume it without recompute.

With a checkpoint directory, a serve session appends all it persists to
one JSONL file, ``<dir>/journal.jsonl``: a ``header`` (the format
version), then per job a ``job`` line (its input digest and chunking),
its ``chunk`` lines (solution rows as hex bytes, so restoration is
bitwise) and, every ``checkpoint_every`` chunks, a ``state`` line (its
start, ready time, the clocks and the health snapshot); new health-log
entries go in as ``transition`` lines just before the state line that
first sees them, and the front end's ``shed`` lines are flushed the
moment each shed is decided.  A job's chunk lines reach the file only
together with its state line.

Resume parses the journal once (:func:`load_checkpoint`) and indexes it
by job id.  A job's chunk lines after its last state line are ignored
(their scheduling context was lost with the kill), and parsing stops at
a torn line, the signature of a killed process; a resumed session cuts
that tail off before it appends.  Chunk fault plans are derived per
``(device, job, chunk, attempt)`` (:mod:`repro.gpusim.pool`) and the
suffix runs from the job's own start, so the recomputed suffix is
bitwise what the uninterrupted run produced, at any kill point.  See
docs/robustness.md, "Checkpoint format".
"""

from __future__ import annotations

import glob
import json
import os
import weakref
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import CheckpointMismatchError
from .job import ChunkAttempt, ChunkRecord, SolveJob

#: Version 3 is the one-journal-per-session layout; version 2 wrote a
#: file per job plus a shed ledger, and is refused.
FORMAT_VERSION = 3

#: The journal's file name inside the checkpoint directory.
FILENAME = "journal.jsonl"


def _chunk_line(job_id: str, record: ChunkRecord, x: np.ndarray) -> dict:
    doc = record.to_dict()
    doc["type"] = "chunk"
    doc["job"] = job_id
    doc["dtype"] = str(x.dtype)
    doc["shape"] = list(x.shape)
    doc["x_hex"] = np.ascontiguousarray(x).tobytes().hex()
    return doc


def _chunk_from_line(doc: dict) -> tuple[ChunkRecord, np.ndarray]:
    x = np.frombuffer(bytes.fromhex(doc["x_hex"]),
                      dtype=np.dtype(doc["dtype"]))
    fields = {k: doc[k] for k in ("chunk_id", "status", "device", "start_ms",
                                  "end_ms", "modeled_ms", "digest")}
    attempts = [ChunkAttempt(**a) for a in doc.get("attempts", [])]
    return (ChunkRecord(**fields, attempts=attempts),
            x.reshape(doc["shape"]).copy())


@dataclass
class ResumeState:
    """What a checkpoint restores for one job: results + scheduler
    state."""

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


#: The state-line fields a :class:`ResumeState` restores as written.
_STATE_KEYS = ("after_chunk", "start_ms", "ready_ms", "now_ms",
               "device_clocks", "cpu_clock_ms")


@dataclass
class Journal:
    """A parsed journal, indexed by job id."""

    digests: dict[str, str] = field(default_factory=dict)
    states: dict[str, ResumeState] = field(default_factory=dict)
    #: request_id -> its shed line
    sheds: dict[str, dict] = field(default_factory=dict)
    #: Bytes of the consistent prefix (everything before a torn tail).
    size: int = 0

    def resume_state(self, job: SolveJob) -> ResumeState:
        """``job``'s last barrier (empty when it has none); raises
        :class:`~repro.serve.errors.CheckpointMismatchError` when the
        journal describes different inputs or chunking under its id."""
        digest = self.digests.get(job.job_id)
        if digest is None:
            return ResumeState()
        if digest != job.input_digest():
            raise CheckpointMismatchError(
                f"checkpoint was written for different job inputs or spec "
                f"(job {job.job_id!r})")
        return self.states[job.job_id]


def load_checkpoint(directory: str) -> Journal:
    """Parse the journal in ``directory`` once (an empty
    :class:`Journal` when there is none).

    Raises :class:`~repro.serve.errors.CheckpointMismatchError` on a
    file without this :data:`FORMAT_VERSION`'s header, and on a
    directory that holds only pre-journal ``*.jsonl`` files."""
    path = os.path.join(directory, FILENAME)
    journal = Journal()
    if not os.path.exists(path):
        old = sorted(os.path.basename(p)
                     for p in glob.glob(os.path.join(directory, "*.jsonl")))
        if old:
            raise CheckpointMismatchError(
                f"{directory}: pre-journal checkpoint files "
                f"({', '.join(old)}) cannot be resumed; format version "
                f"{FORMAT_VERSION} keeps one {FILENAME} per session")
        return journal
    log: list[dict] = []
    unbarriered: dict[str, list[dict]] = {}
    header = None
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break         # torn tail from a kill; nothing follows it
            if line.strip():
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    break
                kind = doc.get("type")
                if header is None:
                    if kind != "header":
                        break
                    header = doc
                    if doc.get("version") != FORMAT_VERSION:
                        raise CheckpointMismatchError(
                            f"{path}: unsupported checkpoint version "
                            f"{doc.get('version')!r}")
                elif kind == "job":
                    job_id = doc["job"]
                    journal.digests[job_id] = doc["input_digest"]
                    journal.states[job_id] = ResumeState()
                    unbarriered[job_id] = []
                elif kind == "chunk":
                    unbarriered.setdefault(doc["job"], []).append(doc)
                elif kind == "transition":
                    del log[doc["seq"]:]
                    log.append(doc["transition"])
                elif kind == "state":
                    st = journal.states.setdefault(doc["job"], ResumeState())
                    for key in _STATE_KEYS:
                        setattr(st, key, doc[key])
                    st.health = dict(doc["health"], transitions=list(log))
                    for chunk in unbarriered.pop(doc["job"], []):
                        record, x = _chunk_from_line(chunk)
                        st.chunks[record.chunk_id] = (record, x)
                elif kind == "shed":
                    journal.sheds[doc["request_id"]] = doc
            journal.size += len(line)
    if header is None:
        raise CheckpointMismatchError(
            f"{path}: not a serve checkpoint (missing header)")
    return journal


class CheckpointWriter:
    """The session journal's one writer (append-only JSONL).

    ``resume=True`` parses the existing journal first
    (:attr:`loaded`), cuts off a torn tail and appends; otherwise the
    journal starts over.
    """

    def __init__(self, directory: str, *, resume: bool = False):
        self.path = os.path.join(directory, FILENAME)
        self.loaded = load_checkpoint(directory) if resume else Journal()
        #: Shed decisions, loaded and recorded: request_id -> line.
        self.sheds = self.loaded.sheds
        #: Per job, lines waiting for its next barrier.
        self._pending: dict[str, list[dict]] = {}
        #: Health-log entries already in the journal's log.
        self._logged = 0
        os.makedirs(directory, exist_ok=True)
        append = resume and os.path.exists(self.path)
        self._fh: IO[str] = open(self.path, "a" if append else "w",
                                 encoding="utf-8")
        # A scheduler dropped without close() still closes its journal.
        self._finalizer = weakref.finalize(self, self._fh.close)
        if append:
            self._fh.truncate(self.loaded.size)
        else:
            self._write([{"type": "header", "version": FORMAT_VERSION}])

    def _write(self, docs) -> None:
        self._fh.write("".join(json.dumps(doc, sort_keys=True) + "\n"
                               for doc in docs))
        self._fh.flush()

    def open_job(self, job_id: str, restored: bool) -> None:
        """Start one run of a job.  A fresh run's first chunk opens with
        its ``job`` line.  A restored run continues the journal's lines;
        the health log it restored is logged again from entry 0 at its
        first barrier, since the journal's log may have moved past it."""
        if restored:
            self._pending[job_id] = []
            self._logged = 0
        else:
            self._pending.pop(job_id, None)

    def add_chunk(self, job: SolveJob, record: ChunkRecord,
                  x: np.ndarray) -> None:
        """Buffer one completed chunk (persisted at the job's next
        barrier)."""
        docs = self._pending.get(job.job_id)
        if docs is None:
            docs = self._pending[job.job_id] = [{
                "type": "job", "job": job.job_id,
                "input_digest": job.input_digest(),
                "num_chunks": job.num_chunks, "chunk_size": job.chunk_size}]
        docs.append(_chunk_line(job.job_id, record, x))

    def barrier(self, job_id: str, after_chunk: int, *, start_ms: float,
                ready_ms: float, now_ms: float,
                device_clocks: dict[str, float], cpu_clock_ms: float,
                health: dict) -> None:
        """Flush ``job_id``'s buffered lines, the health-log entries
        added since the last barrier and one consistent state line."""
        health = dict(health)
        log = health.pop("transitions")
        docs = self._pending[job_id]
        docs.extend({"type": "transition", "seq": i, "transition": t}
                    for i, t in enumerate(log[self._logged:], self._logged))
        self._logged = len(log)
        docs.append({
            "type": "state", "job": job_id, "after_chunk": after_chunk,
            "start_ms": start_ms, "ready_ms": ready_ms, "now_ms": now_ms,
            "device_clocks": device_clocks, "cpu_clock_ms": cpu_clock_ms,
            "health": health,
        })
        self._write(docs)
        self._pending[job_id] = []

    def shed(self, request_id: str, *, tenant: str, cls: str, reason: str,
             at_ms: float) -> None:
        """Persist one shed decision at once (idempotent per request
        id)."""
        if request_id in self.sheds:
            return
        doc = {"type": "shed", "request_id": request_id, "tenant": tenant,
               "cls": cls, "reason": reason, "at_ms": at_ms}
        self.sheds[request_id] = doc
        self._write([doc])

    def close(self) -> None:
        # Buffered-but-unflushed chunks are dropped on purpose: without
        # a state line they could not be resumed consistently anyway.
        self._pending.clear()
        self._finalizer()
