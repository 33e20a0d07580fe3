"""Session journal: bitwise round-trip, barrier semantics, guards."""

import json
import os

import numpy as np
import pytest

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (CheckpointMismatchError, CheckpointWriter,
                         ChunkRecord, FrontendConfig, ServeFrontend,
                         ServeRequest, digest_array, load_checkpoint)
from repro.serve.checkpoint import FILENAME

from .conftest import make_job, make_sched


@pytest.fixture
def job():
    return make_job(diagonally_dominant_fluid(8, 32, seed=7), job_id="ckpt")


def record_for(cid, x):
    return ChunkRecord(chunk_id=cid, status="ok", device="gpu0",
                       start_ms=float(cid), end_ms=float(cid) + 1,
                       modeled_ms=1.0, digest=digest_array(x))


def barrier(w, job_id, cid, *, cpu_clock_ms=0.0, transitions=()):
    w.barrier(job_id, cid, start_ms=0.5, ready_ms=0.25,
              now_ms=float(cid) + 1, device_clocks={"gpu0": float(cid) + 1},
              cpu_clock_ms=cpu_clock_ms,
              health={"devices": {}, "active_names": [],
                      "transitions": list(transitions)})


def write_chunks(ckdir, job, chunk_ids, *, barrier_after=None):
    """Write records for ``chunk_ids`` with one barrier at the end (or
    at ``barrier_after``)."""
    rng = np.random.default_rng(0)
    xs = {}
    w = CheckpointWriter(str(ckdir))
    w.open_job(job.job_id, restored=False)
    for cid in chunk_ids:
        x = rng.standard_normal((job.chunk_size, job.systems.n))
        xs[cid] = x
        w.add_chunk(job, record_for(cid, x), x)
        if cid == barrier_after:
            barrier(w, job.job_id, cid)
    if barrier_after is None and chunk_ids:
        barrier(w, job.job_id, chunk_ids[-1], cpu_clock_ms=0.25)
    w.close()
    return xs


def resume_state(ckdir, job):
    return load_checkpoint(str(ckdir)).resume_state(job)


def journal_path(ckdir):
    return ckdir / FILENAME


def test_bitwise_round_trip(tmp_path, job):
    xs = write_chunks(tmp_path, job, [0, 1])
    state = resume_state(tmp_path, job)
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
    assert os.listdir(tmp_path) == [FILENAME]


def test_unbarriered_chunks_are_dropped_on_close(tmp_path, job):
    """Kill semantics: only barrier() persists buffered chunk lines."""
    write_chunks(tmp_path, job, [0, 1, 2], barrier_after=1)
    state = resume_state(tmp_path, job)
    assert sorted(state.chunks) == [0, 1]        # chunk 2 never flushed
    assert state.after_chunk == 1
    assert '"chunk_id": 2' not in journal_path(tmp_path).read_text()


def test_chunks_after_last_state_line_are_ignored(tmp_path, job):
    xs = write_chunks(tmp_path, job, [0])
    # Simulate a chunk line flushed by a later partial block whose
    # state line never landed.
    x = xs[0]
    stray = {"type": "chunk", "job": job.job_id, "chunk_id": 5,
             "status": "ok", "device": "gpu0", "attempts": [],
             "start_ms": 0.0, "end_ms": 1.0, "modeled_ms": 1.0,
             "digest": digest_array(x), "dtype": str(x.dtype),
             "shape": list(x.shape), "x_hex": x.tobytes().hex()}
    with open(journal_path(tmp_path), "a") as fh:
        fh.write(json.dumps(stray) + "\n")
    state = resume_state(tmp_path, job)
    assert sorted(state.chunks) == [0]


def test_torn_final_line_is_tolerated(tmp_path, job):
    write_chunks(tmp_path, job, [0])
    with open(journal_path(tmp_path), "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 9, "x_hex": "dead')  # torn
    state = resume_state(tmp_path, job)
    assert sorted(state.chunks) == [0]
    assert state.after_chunk == 0


def test_input_digest_guard(tmp_path, job):
    write_chunks(tmp_path, job, [0])
    other = make_job(diagonally_dominant_fluid(8, 32, seed=8),
                     job_id="ckpt")
    with pytest.raises(CheckpointMismatchError):
        resume_state(tmp_path, other)


def test_spec_change_also_trips_the_guard(tmp_path, job):
    write_chunks(tmp_path, job, [0])
    respec = make_job(job.systems, job_id="ckpt", chunk_size=2)
    with pytest.raises(CheckpointMismatchError):
        resume_state(tmp_path, respec)


def test_non_checkpoint_file_rejected(tmp_path, job):
    journal_path(tmp_path).write_text('{"type": "chunk"}\n')
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(tmp_path))


def test_header_only_file_resumes_empty(tmp_path, job):
    CheckpointWriter(str(tmp_path)).close()
    state = resume_state(tmp_path, job)
    assert state.chunks == {}
    assert state.after_chunk == -1


def test_torn_state_line_falls_back_to_previous_barrier(tmp_path, job):
    """A kill can tear the *state* line itself; resume must land on the
    last complete barrier, not the torn one."""
    write_chunks(tmp_path, job, [0])
    with open(journal_path(tmp_path), "a") as fh:
        fh.write('{"type": "chunk", "job": "ckpt", "chunk_id": 1, '
                 '"status": "ok"}\n'
                 '{"type": "state", "job": "ckpt", "after_chunk": 1, '
                 '"now_ms": 2.0')  # torn
    state = resume_state(tmp_path, job)
    assert state.after_chunk == 0
    assert sorted(state.chunks) == [0]


def test_torn_line_truncates_everything_after_it(tmp_path, job):
    """Parsing stops at the first undecodable line: later lines cannot
    be trusted to belong to a consistent block, even if they parse."""
    write_chunks(tmp_path, job, [0])
    with open(journal_path(tmp_path), "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 3, "x_hex": "de')  # torn
        fh.write("\n")
        fh.write(json.dumps({"type": "state", "job": "ckpt",
                             "after_chunk": 3, "start_ms": 0.0,
                             "ready_ms": 0.0, "now_ms": 9.0,
                             "device_clocks": {}, "cpu_clock_ms": 0.0,
                             "health": {}}) + "\n")
    state = resume_state(tmp_path, job)
    assert state.after_chunk == 0          # the post-tear barrier is ignored
    assert sorted(state.chunks) == [0]


def test_torn_header_is_rejected(tmp_path, job):
    journal_path(tmp_path).write_text('{"type": "header", "version": 3, "v')
    with pytest.raises(CheckpointMismatchError, match="missing header"):
        load_checkpoint(str(tmp_path))


def test_empty_file_is_rejected(tmp_path, job):
    journal_path(tmp_path).write_text("")
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(tmp_path))


def test_blank_lines_are_tolerated(tmp_path, job):
    write_chunks(tmp_path, job, [0])
    path = journal_path(tmp_path)
    text = path.read_text().replace("\n", "\n\n")
    path.write_text("\n" + text)
    state = resume_state(tmp_path, job)
    assert sorted(state.chunks) == [0]
    assert state.after_chunk == 0


def test_version_mismatch_is_rejected(tmp_path, job):
    write_chunks(tmp_path, job, [0])
    path = journal_path(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(CheckpointMismatchError, match="version"):
        load_checkpoint(str(tmp_path))


def test_version_1_checkpoint_is_rejected(tmp_path, job):
    """An older version cannot resume in this layout: resume refuses it
    with the typed error."""
    sched = make_sched(make_pool(2, seed=5), checkpoint_dir=str(tmp_path))
    sched.run_job(job, stop_after=1)
    sched.journal().close()
    path = journal_path(tmp_path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"type": "header", "version": 3}
    lines[0] = lines[0].replace('"version": 3', '"version": 1')
    path.write_text("\n".join(lines) + "\n")
    fresh = make_sched(make_pool(2, seed=5), checkpoint_dir=str(tmp_path))
    with pytest.raises(CheckpointMismatchError, match="version 1"):
        fresh.run_job(job, resume=True)


def test_resume_append_supersedes_earlier_barrier(tmp_path, job):
    """Reopening with resume=True appends (no second header); the last
    barrier wins and earlier chunks stay restorable."""
    xs = write_chunks(tmp_path, job, [0])
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((job.chunk_size, job.systems.n))
    w = CheckpointWriter(str(tmp_path), resume=True)
    w.open_job(job.job_id, restored=True)
    w.add_chunk(job, record_for(1, x1), x1)
    barrier(w, job.job_id, 1, cpu_clock_ms=0.5)
    w.close()
    headers = [line for line in journal_path(tmp_path).read_text()
               .splitlines() if '"type": "header"' in line]
    assert len(headers) == 1
    state = resume_state(tmp_path, job)
    assert state.after_chunk == 1
    assert sorted(state.chunks) == [0, 1]
    assert np.array_equal(state.chunks[0][1], xs[0])
    assert np.array_equal(state.chunks[1][1], x1)
    assert state.cpu_clock_ms == 0.5


def test_resumed_session_cuts_a_torn_tail_before_appending(tmp_path, job):
    """A resumed session appends after the last complete line, so its
    own barriers survive the next resume."""
    write_chunks(tmp_path, job, [0])
    with open(journal_path(tmp_path), "a") as fh:
        fh.write('{"type": "chunk", "chunk_id": 1, "x_hex": "de')  # torn
    x1 = np.ones((job.chunk_size, job.systems.n))
    w = CheckpointWriter(str(tmp_path), resume=True)
    w.open_job(job.job_id, restored=True)
    w.add_chunk(job, record_for(1, x1), x1)
    barrier(w, job.job_id, 1)
    w.close()
    state = resume_state(tmp_path, job)
    assert state.after_chunk == 1 and sorted(state.chunks) == [0, 1]


def test_barrier_bytes_do_not_grow_with_the_health_log(tmp_path, job):
    """A barrier writes its own chunks and the transitions logged since
    the previous barrier, never the log that came before."""
    w = CheckpointWriter(str(tmp_path))
    w.open_job(job.job_id, restored=False)
    move = {"device": "gpu1", "from": "active", "to": "suspect",
            "reason": "latency", "at_ms": 1.0}
    log, sizes = [], []
    for cid in range(40):
        log.append(dict(move))
        x = np.full((job.chunk_size, job.systems.n), 0.5)
        before = os.path.getsize(w.path)
        w.add_chunk(job, record_for(0, x), x)
        barrier(w, job.job_id, 0, transitions=log)
        sizes.append(os.path.getsize(w.path) - before)
    w.close()
    # The first barrier also carries the job line; after it, only the
    # digits of the log index differ (seq 9 -> seq 10).
    assert max(sizes[1:]) - min(sizes[1:]) <= 1
    state = resume_state(tmp_path, job)
    assert state.health["transitions"] == log


def test_each_transition_is_logged_once_per_session(tmp_path):
    """Through the scheduler: every lifecycle transition lands once,
    state lines carry none, and resume rebuilds the log."""
    from .test_health import brownout_pool, quick_policy
    job = make_job(diagonally_dominant_fluid(48, 64, seed=11), job_id="kr")
    sched = make_sched(brownout_pool(), seed=13, hedge_ratio=1.5,
                       checkpoint_every=1, checkpoint_dir=str(tmp_path),
                       health_policy=quick_policy(quarantine_ms=0.005))
    sched.run_job(job)
    sched.journal().close()
    assert len(sched.health.transitions) >= 2
    docs = [json.loads(line)
            for line in journal_path(tmp_path).read_text().splitlines()]
    logged = [d for d in docs if d["type"] == "transition"]
    assert [d["seq"] for d in logged] == \
        list(range(len(sched.health.transitions)))
    assert [d["transition"] for d in logged] == sched.health.transitions
    assert all("transitions" not in d["health"]
               for d in docs if d["type"] == "state")
    state = resume_state(tmp_path, job)
    assert state.health["transitions"] == sched.health.transitions


def test_fused_pair_killed_and_resumed_matches_straight_run(tmp_path):
    """Two fused pairs through the front end: a kill after the first
    launch resumes both members of that pair from the one journal."""
    def requests():
        return [ServeRequest(f"r{i}", "default",
                             diagonally_dominant_fluid(4, 32, seed=i),
                             method="cr_pcr") for i in range(4)]

    def run(ckpt, **kw):
        sched = make_sched(make_pool(2, seed=5), checkpoint_every=1,
                           checkpoint_dir=ckpt)
        fe = ServeFrontend(sched, config=FrontendConfig(),
                           resume=kw.pop("resume", False))
        report = fe.run(requests(), **kw)
        fe.close()
        return {o.request_id: (o.state, o.finish_ms,
                               o.report.solution_digest(),
                               [c.device for c in o.report.chunks])
                for o in report.outcomes}, report

    straight, rep = run(None)
    assert [len(o.report.mates) for o in rep.outcomes] == [1, 0, 1, 0]
    ckpt = str(tmp_path / "ckpt")
    killed, _ = run(ckpt, stop_after_jobs=1)
    assert sorted(killed) == ["r0", "r1"]
    resumed, rep = run(ckpt, resume=True)
    assert [o.report.restored_chunks for o in rep.outcomes] == \
        [[0], [0], [], []]
    assert resumed == straight
    assert os.listdir(ckpt) == [FILENAME]
