"""Checkpoint format: bitwise round-trip, barrier semantics, guards."""

import json

import numpy as np
import pytest

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (CheckpointMismatchError, CheckpointWriter,
                         ChunkRecord, digest_array, load_checkpoint)

from .conftest import make_job, make_sched


@pytest.fixture
def job():
    return make_job(diagonally_dominant_fluid(8, 32, seed=7), job_id="ckpt")


def write_chunks(path, job, chunk_ids, *, barrier_after=None):
    """Write records for ``chunk_ids`` with one barrier at the end (or
    at ``barrier_after``)."""
    rng = np.random.default_rng(0)
    xs = {}
    with CheckpointWriter(str(path), job) as w:
        for cid in chunk_ids:
            x = rng.standard_normal((job.chunk_size, job.systems.n))
            xs[cid] = x
            record = ChunkRecord(chunk_id=cid, status="ok", device="gpu0",
                                 start_ms=float(cid), end_ms=float(cid) + 1,
                                 modeled_ms=1.0, digest=digest_array(x))
            w.add_chunk(record, x)
            if cid == barrier_after:
                w.barrier(cid, start_ms=0.5, ready_ms=0.25,
                          now_ms=float(cid) + 1,
                          device_clocks={"gpu0": float(cid) + 1},
                          cpu_clock_ms=0.0, health={})
        if barrier_after is None and chunk_ids:
            last = chunk_ids[-1]
            w.barrier(last, start_ms=0.5, ready_ms=0.25,
                      now_ms=float(last) + 1,
                      device_clocks={"gpu0": float(last) + 1},
                      cpu_clock_ms=0.25, health={})
    return xs


def test_bitwise_round_trip(tmp_path, job):
    path = tmp_path / "job.jsonl"
    xs = write_chunks(path, job, [0, 1])
    state = load_checkpoint(str(path), job)
    assert sorted(state.chunks) == [0, 1]
    for cid, x in xs.items():
        record, restored = state.chunks[cid]
        assert restored.dtype == x.dtype
        assert np.array_equal(restored, x)       # bitwise, not approx
        assert record.digest == digest_array(restored)
    assert state.after_chunk == 1
    assert (state.start_ms, state.ready_ms) == (0.5, 0.25)
    assert state.device_clocks == {"gpu0": 2.0}
    assert state.cpu_clock_ms == 0.25


def test_unbarriered_chunks_are_dropped_on_close(tmp_path, job):
    """Kill semantics: only barrier() persists buffered chunk lines."""
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0, 1, 2], barrier_after=1)
    state = load_checkpoint(str(path), job)
    assert sorted(state.chunks) == [0, 1]        # chunk 2 never flushed
    assert state.after_chunk == 1


def test_chunks_after_last_state_line_are_ignored(tmp_path, job):
    path = tmp_path / "job.jsonl"
    xs = write_chunks(path, job, [0])
    # Simulate a chunk line flushed by a later partial block whose
    # state line never landed.
    x = xs[0]
    stray = {"type": "chunk", "chunk_id": 5, "status": "ok",
             "device": "gpu0", "attempts": [], "start_ms": 0.0,
             "end_ms": 1.0, "modeled_ms": 1.0,
             "digest": digest_array(x), "dtype": str(x.dtype),
             "shape": list(x.shape), "x_hex": x.tobytes().hex()}
    with open(path, "a") as fh:
        fh.write(json.dumps(stray) + "\n")
    state = load_checkpoint(str(path), job)
    assert sorted(state.chunks) == [0]


def test_torn_final_line_is_tolerated(tmp_path, job):
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    with open(path, "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 9, "x_hex": "dead')  # torn
    state = load_checkpoint(str(path), job)
    assert sorted(state.chunks) == [0]
    assert state.after_chunk == 0


def test_input_digest_guard(tmp_path, job):
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    other = make_job(diagonally_dominant_fluid(8, 32, seed=8),
                     job_id="ckpt")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path), other)


def test_spec_change_also_trips_the_guard(tmp_path, job):
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    respec = make_job(job.systems, job_id="ckpt", chunk_size=2)
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path), respec)


def test_non_checkpoint_file_rejected(tmp_path, job):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"type": "chunk"}\n')
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path), job)


def test_header_only_file_resumes_empty(tmp_path, job):
    path = tmp_path / "job.jsonl"
    CheckpointWriter(str(path), job).close()
    state = load_checkpoint(str(path), job)
    assert state.chunks == {}
    assert state.after_chunk == -1


def test_torn_state_line_falls_back_to_previous_barrier(tmp_path, job):
    """A kill can tear the *state* line itself; resume must land on the
    last complete barrier, not the torn one."""
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    with open(path, "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 1, "status": "ok"}\n'
                 '{"type": "state", "after_chunk": 1, "now_ms": 2.0')  # torn
    state = load_checkpoint(str(path), job)
    assert state.after_chunk == 0
    assert sorted(state.chunks) == [0]


def test_torn_line_truncates_everything_after_it(tmp_path, job):
    """Parsing stops at the first undecodable line: later lines cannot
    be trusted to belong to a consistent block, even if they parse."""
    path = tmp_path / "job.jsonl"
    xs = write_chunks(path, job, [0])
    x = xs[0]
    with open(path, "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 3, "x_hex": "de')  # torn
        fh.write("\n")
        fh.write(json.dumps({"type": "state", "after_chunk": 3,
                             "start_ms": 0.0, "ready_ms": 0.0,
                             "now_ms": 9.0, "device_clocks": {},
                             "cpu_clock_ms": 0.0, "health": {}}) + "\n")
    state = load_checkpoint(str(path), job)
    assert state.after_chunk == 0          # the post-tear barrier is ignored
    assert sorted(state.chunks) == [0]


def test_torn_header_is_rejected(tmp_path, job):
    path = tmp_path / "job.jsonl"
    path.write_text('{"type": "header", "version": 1, "job_id": "ck')
    with pytest.raises(CheckpointMismatchError, match="missing header"):
        load_checkpoint(str(path), job)


def test_empty_file_is_rejected(tmp_path, job):
    path = tmp_path / "job.jsonl"
    path.write_text("")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path), job)


def test_blank_lines_are_tolerated(tmp_path, job):
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    text = path.read_text().replace("\n", "\n\n")
    path.write_text("\n" + text)
    state = load_checkpoint(str(path), job)
    assert sorted(state.chunks) == [0]
    assert state.after_chunk == 0


def test_version_mismatch_is_rejected(tmp_path, job):
    path = tmp_path / "job.jsonl"
    write_chunks(path, job, [0])
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(CheckpointMismatchError, match="version"):
        load_checkpoint(str(path), job)


def test_version_1_checkpoint_is_rejected(tmp_path, job):
    """A version-1 file has no job start, so its suffix cannot run on
    the job's own timeline: resume refuses it with the typed error."""
    sched = make_sched(make_pool(2, seed=5), checkpoint_dir=str(tmp_path))
    sched.run_job(job, stop_after=1)
    path = tmp_path / "ckpt.jsonl"
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["version"] == 2
    lines[0] = lines[0].replace('"version": 2', '"version": 1')
    path.write_text("\n".join(lines) + "\n")
    fresh = make_sched(make_pool(2, seed=5), checkpoint_dir=str(tmp_path))
    with pytest.raises(CheckpointMismatchError, match="version 1"):
        fresh.run_job(job, resume=True)


def test_resume_append_supersedes_earlier_barrier(tmp_path, job):
    """Reopening with resume=True appends (no second header); the last
    barrier wins and earlier chunks stay restorable."""
    path = tmp_path / "job.jsonl"
    xs = write_chunks(path, job, [0])
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((job.chunk_size, job.systems.n))
    with CheckpointWriter(str(path), job, resume=True) as w:
        w.add_chunk(ChunkRecord(chunk_id=1, status="ok", device="gpu0",
                                start_ms=1.0, end_ms=2.0, modeled_ms=1.0,
                                digest=digest_array(x1)), x1)
        w.barrier(1, start_ms=0.5, ready_ms=0.25, now_ms=2.0,
                  device_clocks={"gpu0": 2.0}, cpu_clock_ms=0.5, health={})
    headers = [line for line in path.read_text().splitlines()
               if '"type": "header"' in line]
    assert len(headers) == 1
    state = load_checkpoint(str(path), job)
    assert state.after_chunk == 1
    assert sorted(state.chunks) == [0, 1]
    assert np.array_equal(state.chunks[0][1], xs[0])
    assert np.array_equal(state.chunks[1][1], x1)
    assert state.cpu_clock_ms == 0.5
