"""Tests for the ``repro.serve`` evaluation service.

Three layers, matching the package: the frame codec (round-trips,
torn frames, garbage), the :class:`UnitScheduler` (cross-client dedup,
cancellation, fair-share bookkeeping) driven directly with synthetic
units, and the full daemon loop — real experiments submitted over a
socket by concurrent :class:`ServeClient`\\ s, checked bit-identical
against the equivalent one-shot ``run_experiment``.
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.experiment import ExperimentSpec, run_experiment
from repro.harness.cache import ResultCache
from repro.harness.report import experiment_result_to_mapping
from repro.serve import (
    EvalDaemon,
    FrameDecoder,
    ProtocolError,
    ServeClient,
    SubmissionCancelled,
    UnitScheduler,
    encode_frame,
)
from repro.serve.client import ServeError
from repro.serve.protocol import MAX_FRAME_BYTES
from repro.serve.scheduler import LockedResultCache

# ----------------------------------------------------------------------
# protocol — framing
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip(self):
        message = {"op": "submit", "spec": {"name": "x", "scales": [0.1]}}
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(message))
        assert frames == [message]
        assert decoder.pending == 0

    def test_torn_frames_reassemble_byte_at_a_time(self):
        messages = [{"n": i, "payload": "x" * i} for i in range(5)]
        wire = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        seen = []
        for i in range(len(wire)):
            seen.extend(decoder.feed(wire[i:i + 1]))
        assert seen == messages
        assert decoder.pending == 0

    def test_multiple_frames_in_one_chunk(self):
        messages = [{"a": 1}, {"b": 2}, {"c": 3}]
        wire = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(wire) == messages

    def test_oversized_header_rejected(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="limit"):
            FrameDecoder().feed(header)

    def test_garbage_payload_rejected(self):
        wire = (3).to_bytes(4, "big") + b"\xff\xfe\xfd"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(wire)

    def test_oversized_message_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


# ----------------------------------------------------------------------
# scheduler — dedup, cancellation, fair share
# ----------------------------------------------------------------------
def _wait_for_file(path, timeout=30.0):
    """Worker-side gate: spin until ``path`` exists (test plumbing)."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(path)
        time.sleep(0.01)
    return "released"


def _double(x):
    return 2 * x


@pytest.fixture
def scheduler():
    sched = UnitScheduler(workers=1)
    yield sched
    sched.shutdown()


class TestUnitScheduler:
    def test_same_key_joins_in_flight_unit(self, scheduler, tmp_path):
        gate = tmp_path / "gate"
        h1 = scheduler.handle(label="client-a")
        h2 = scheduler.handle(label="client-b")
        # occupy the only worker so the shared unit stays queued
        blocker, _ = h1.submit_unit("blocker", _wait_for_file, str(gate))
        f1, launched1 = h1.submit_unit("shared", _double, 21)
        f2, launched2 = h2.submit_unit("shared", _double, 21)
        assert launched1 and not launched2
        assert f2 is f1
        gate.touch()
        assert blocker.result(timeout=30) == "released"
        assert f1.result(timeout=30) == 42
        assert scheduler.stats.units_launched == 2
        assert scheduler.stats.units_deduped == 1
        h1.release()
        h2.release()

    def test_done_unit_joinable_until_launcher_releases(self, scheduler):
        h1 = scheduler.handle()
        h2 = scheduler.handle()
        f1, _ = h1.submit_unit("k", _double, 5)
        assert f1.result(timeout=30) == 10
        # finished but h1 still references it: a second client joins the
        # completed future instead of re-running (the launcher has not
        # stored it to the cache yet)
        f2, launched = h2.submit_unit("k", _double, 5)
        assert not launched
        assert f2.result(timeout=30) == 10
        h1.release()
        h2.release()
        # with everyone released the key is forgotten; a fresh
        # submission launches again
        _, relaunched = h1.submit_unit("k", _double, 5)
        assert relaunched

    def test_cancel_drops_queued_orphans(self, scheduler, tmp_path):
        gate = tmp_path / "gate"
        h = scheduler.handle()
        blocker, _ = h.submit_unit("blocker", _wait_for_file, str(gate))
        queued, _ = h.submit_unit("queued", _double, 1)
        h.cancel()
        assert queued.cancelled()
        assert scheduler.stats.units_cancelled >= 1
        with pytest.raises(SubmissionCancelled):
            h.submit_unit("late", _double, 2)
        gate.touch()
        # the running unit drains; the worker is never killed mid-unit
        assert blocker.result(timeout=30) == "released"

    def test_queued_unit_survives_if_another_handle_wants_it(
        self, scheduler, tmp_path
    ):
        gate = tmp_path / "gate"
        h1 = scheduler.handle()
        h2 = scheduler.handle()
        h1.submit_unit("blocker", _wait_for_file, str(gate))
        f1, _ = h1.submit_unit("shared", _double, 3)
        f2, _ = h2.submit_unit("shared", _double, 3)
        h1.cancel()
        assert not f2.cancelled()
        gate.touch()
        assert f2.result(timeout=30) == 6
        h2.release()

    def test_priority_orders_dispatch(self, scheduler, tmp_path):
        gate = tmp_path / "gate"
        low = scheduler.handle(priority=0)
        high = scheduler.handle(priority=5)
        low.submit_unit("blocker", _wait_for_file, str(gate))
        f_low, _ = low.submit_unit("low", _double, 1)
        f_high, _ = high.submit_unit("high", _double, 2)
        gate.touch()
        assert f_high.result(timeout=30) == 4
        # the single worker must have run the high-priority unit first
        done_first = f_high.done() and not f_low.done()
        f_low.result(timeout=30)
        assert done_first or f_low.done()

    def test_claims_run_one_key_at_a_time(self, scheduler):
        events = []
        inside, release = threading.Event(), threading.Event()

        def first():
            with scheduler.handle().claim("k"):
                events.append("first in")
                inside.set()
                release.wait(timeout=30)
                events.append("first out")

        def second():
            with scheduler.handle().claim("k"):
                events.append("second in")

        t1 = threading.Thread(target=first)
        t1.start()
        assert inside.wait(timeout=30)
        with scheduler.handle().claim("other"):  # another key never waits
            events.append("other")
        t2 = threading.Thread(target=second)
        t2.start()
        t2.join(timeout=0.2)
        assert t2.is_alive()  # blocked behind the first claim on "k"
        release.set()
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert not t1.is_alive() and not t2.is_alive()
        assert events == ["first in", "other", "first out", "second in"]
        assert scheduler._claims == {}

    def test_concurrent_sweeps_filter_a_trace_once(self, tmp_path, monkeypatch):
        """Two sessions missing the same point share one front end: the
        second maps what the first committed instead of re-filtering."""
        from repro.cache.array_lru import BatchedPrivateFilter
        from repro.common.config import SystemConfig
        from repro.harness.sweep import SweepSpec, run_sweep

        calls = []
        original = BatchedPrivateFilter.filter

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchedPrivateFilter, "filter", counting)
        spec = SweepSpec(
            workloads=("heat",), designs=("baseline", "AVR"),
            config=SystemConfig.scaled(num_cores=2), scales=(0.1,),
            max_accesses_per_core=2_000,
        )
        cache = LockedResultCache(ResultCache(tmp_path))
        sched = UnitScheduler(workers=2)
        barrier = threading.Barrier(2)
        results = {}

        def drive(tag):
            handle = sched.handle(label=tag)
            barrier.wait(timeout=30)
            try:
                results[tag] = run_sweep(spec, cache_dir=cache, executor=handle)
            finally:
                handle.release()

        threads = [threading.Thread(target=drive, args=(t,)) for t in "ab"]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sched.shutdown()
        assert set(results) == {"a", "b"}
        assert len(calls) == 1
        assert sum(r.stats.frontends_computed for r in results.values()) == 1
        a, b = (results[t].by_workload()["heat"] for t in "ab")
        for design in a.runs:
            assert a.runs[design].timing.metrics_equal(b.runs[design].timing)

    def test_shutdown_refuses_new_work(self, scheduler):
        scheduler.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.handle().submit_unit("k", _double, 1)


# ----------------------------------------------------------------------
# daemon — end to end over a real socket
# ----------------------------------------------------------------------
SPEC_A = {
    "name": "serve-a",
    "workloads": ["kmeans"],
    "designs": ["baseline", "AVR"],
    "scales": [0.1],
    "max_accesses_per_core": 2000,
}
#: superset of SPEC_A — the kmeans units are shared across clients
SPEC_B = {
    "name": "serve-b",
    "workloads": ["kmeans", "heat"],
    "designs": ["baseline", "AVR"],
    "scales": [0.1],
    "max_accesses_per_core": 2000,
}


def test_locked_cache_mirrors_inner(tmp_path):
    """The daemon's locked facade shares the wrapped cache's counters."""
    inner = ResultCache(tmp_path)
    locked = LockedResultCache(inner)
    locked.put_many({"ab" * 32: 1})
    assert locked.stats is inner.stats and inner.stats.stores == 1
    assert locked.get_many(["ab" * 32]) == {"ab" * 32: 1}
    assert locked.disk_usage().entries == len(locked) == 1


def _canonical(mapping):
    """JSON round-trip so tuple/list and key order differences vanish."""
    return json.loads(json.dumps(mapping, sort_keys=True))


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a localhost port, served from a background loop."""
    inst = EvalDaemon(cache_dir=tmp_path / "served-cache", port=0, workers=2)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(inst.start(), loop).result(timeout=30)
    try:
        yield inst
    finally:
        asyncio.run_coroutine_threadsafe(inst.shutdown(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


class TestDaemonEndToEnd:
    def test_cold_then_warm_matches_one_shot(self, daemon, tmp_path):
        spec = ExperimentSpec.from_mapping(SPEC_A)
        one_shot = run_experiment(
            spec, jobs=1, cache_dir=tmp_path / "one-shot-cache"
        )
        expected = _canonical(experiment_result_to_mapping(one_shot))
        expected.pop("stats")

        with ServeClient(port=daemon.port) as client:
            job = client.submit(SPEC_A)
            cold = client.wait(job)
        assert cold["stats"]["executed"] > 0
        served = _canonical(cold["result"])
        served.pop("stats")
        assert served == expected

        # warm resubmit: bit-identical again, entirely from the cache
        with ServeClient(port=daemon.port) as client:
            warm = client.wait(client.submit(SPEC_A))
        assert warm["stats"]["executed"] == 0
        assert warm["stats"]["cache_hits"] > 0
        rewarmed = _canonical(warm["result"])
        rewarmed.pop("stats")
        assert rewarmed == expected

    def test_overlapping_clients_execute_shared_units_once(self, daemon):
        outcomes = {}

        def drive(tag, spec, barrier):
            with ServeClient(port=daemon.port) as client:
                barrier.wait(timeout=30)
                outcomes[tag] = client.wait(client.submit(spec))

        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(target=drive, args=("b", SPEC_B, barrier)),
            threading.Thread(target=drive, args=("a", SPEC_A, barrier)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert set(outcomes) == {"a", "b"}

        a_stats = outcomes["a"]["stats"]
        b_stats = outcomes["b"]["stats"]
        rollup = daemon.scheduler.stats
        # 'executed' counts launched units only; joins land in
        # 'units_deduped'.  The cache started empty and B's grid covers
        # every distinct unit, so exactly-once means B's full
        # accounting equals the scheduler's launch count
        assert rollup.units_launched == (
            b_stats["executed"]
            + b_stats["units_deduped"]
            + b_stats["cache_hits"]
        )
        # every launch and every join is attributed to exactly one client
        assert rollup.units_launched == (
            a_stats["executed"] + b_stats["executed"]
        )
        assert rollup.units_deduped == (
            a_stats["units_deduped"] + b_stats["units_deduped"]
        )
        # the overlap manifested somewhere: whichever client lost the
        # race joined in flight or read from the shared cache
        assert (
            a_stats["units_deduped"] + a_stats["cache_hits"]
            + b_stats["units_deduped"] + b_stats["cache_hits"]
        ) > 0
        # both clients got full result payloads
        assert len(outcomes["a"]["result"]["evaluations"]) == 1
        assert len(outcomes["b"]["result"]["evaluations"]) == 2

    def test_cancel_mid_flight(self, daemon):
        with ServeClient(port=daemon.port) as client:
            job = client.submit(SPEC_B)
            client.cancel(job)
            with pytest.raises(ServeError, match="cancelled"):
                client.wait(job)
        # the daemon keeps serving after the cancellation
        with ServeClient(port=daemon.port) as client:
            outcome = client.wait(client.submit(SPEC_A))
        assert outcome["result"]["experiment"] == "serve-a"

    def test_client_disconnect_does_not_kill_daemon(self, daemon):
        client = ServeClient(port=daemon.port).connect()
        client.submit(SPEC_A)
        client.close()  # vanish with the job still in flight
        deadline = time.monotonic() + 60
        while daemon.sessions and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not daemon.sessions
        with ServeClient(port=daemon.port) as survivor:
            outcome = survivor.wait(survivor.submit(SPEC_A))
        assert outcome["result"]["experiment"] == "serve-a"

    def test_disconnect_after_units_ran_ends_session(self, daemon):
        # the pool's workers run this client's units while it is
        # connected; none of them may keep its socket open after it leaves
        client = ServeClient(port=daemon.port).connect()
        job = client.submit(SPEC_A)
        next(e for e in client.events(job) if e.get("event") == "unit_done")
        client.close()
        deadline = time.monotonic() + 60
        while daemon.sessions and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not daemon.sessions

    def test_bad_spec_reports_error_without_closing_session(self, daemon):
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeError, match="unknown experiment"):
                client.submit({"name": "bad", "bogus_key": 1})
            # same connection still works
            outcome = client.wait(client.submit(SPEC_A))
        assert outcome["result"]["experiment"] == "serve-a"

    def test_execution_only_keys_are_stripped(self, daemon, tmp_path):
        poisoned = dict(SPEC_A)
        poisoned["cache_dir"] = str(tmp_path / "client-says-here")
        poisoned["jobs"] = 99
        with ServeClient(port=daemon.port) as client:
            outcome = client.wait(client.submit(poisoned))
        assert outcome["result"]["experiment"] == "serve-a"
        assert not (tmp_path / "client-says-here").exists()
        # results landed in the daemon's shared cache instead
        assert len(daemon.cache) > 0

    def test_status_reports_shared_state(self, daemon):
        with ServeClient(port=daemon.port) as client:
            client.wait(client.submit(SPEC_A))
            status = client.status()
        assert status["event"] == "status"
        assert status["address"].endswith(str(daemon.port))
        assert status["scheduler"]["workers"] == 2
        assert status["scheduler"]["stats"]["units_launched"] > 0
        assert status["cache_entries"] > 0
        assert status["uptime_s"] >= 0
