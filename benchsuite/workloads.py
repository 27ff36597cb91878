"""The benchmark's workloads: what one measured child process runs.

Every workload is a closed loop: a caller sends its next operation only
after the previous one returned.  ``grid-cold``, ``avr-stream`` and
``grid-warm`` have one caller running ``run_experiment`` passes with
``jobs=1``; ``serve-2client`` has two client connections submitting in
lockstep rounds to an in-process daemon with two worker processes.  The
benchmark seed is the only input: it becomes the specs' ``seeds`` and
the serve draw RNG's seed, and the package sees only the generated
specs.

Each operation yields an :class:`Op`: its host time, and a SHA-256
digest of the simulated outputs it produced.  Digests are keyed by
what was simulated (``grid@<seed>``, ``heat@<seed>``, ...), so every
operation that simulated the same thing — cold, warm, traced or served
— must produce the same digest.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiment import ExperimentSpec, run_experiment
from repro.harness.report import experiment_result_to_mapping
from repro.serve import EvalDaemon, ServeClient
from repro.serve.client import ServeError

from tracer import ROOT_SPAN, Tracer
from yardstick import Yardstick

#: the paper workloads whose work does not depend on the seed, in paper
#: order; kmeans runs until its clustering converges, which takes 12 to
#: 60 iterations depending on the seed's data, so its cost would vary
#: threefold between seeds
FIXED_WORKLOADS = ("heat", "lattice", "lbm", "orbit", "bscholes", "wrf")
#: the five paper designs
PAPER_DESIGNS = ("baseline", "dganger", "truncate", "ZeroAVR", "AVR")


def digest(evaluations: list[dict[str, Any]]) -> str:
    """SHA-256 of every evaluation's simulated outputs.

    ``evaluations`` is the ``evaluations`` list of
    :func:`repro.harness.report.experiment_result_to_mapping`, the form
    the serve daemon also returns, so an in-process run and a served one
    of the same spec digest equal.  It covers every ``SimResult`` replay
    field plus each design's output error, iterations and compression
    ratio.
    """
    text = json.dumps(evaluations, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One measured operation: a pass or a submission."""

    #: ``time.perf_counter()`` at the start, and the host seconds taken
    start: float
    seconds: float
    #: what was simulated; ops with equal keys must digest equal
    key: str
    #: None when the operation raised
    digest: str | None
    #: False when the operation raised or broke an invariant
    ok: bool = True
    #: serve only: submit -> accepted, and submit -> first unit done
    accept_s: float | None = None
    first_unit_s: float | None = None
    stats: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Size:
    """How big a workload's specs are."""

    workloads: tuple[str, ...]
    designs: tuple[str, ...]
    scale: float
    cores: int
    accesses: int

    def spec(self, name: str, workloads: tuple[str, ...], seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            name=name,
            workloads=workloads,
            designs=self.designs,
            scales=(self.scale,),
            seeds=(seed,),
            max_accesses_per_core=self.accesses,
            num_cores=self.cores,
        )


#: workload -> (full size, smoke size); the smoke sizes only exercise
#: the mechanics (their digests are never pinned)
SIZES = {
    "grid": (
        Size(FIXED_WORKLOADS, PAPER_DESIGNS, 0.15, 4, 5_000),
        Size(("bscholes", "wrf"), ("baseline", "AVR"), 0.05, 2, 500),
    ),
    "stream": (
        Size(("heat",), ("baseline", "AVR"), 0.2, 4, 100_000),
        Size(("wrf",), ("baseline", "AVR"), 0.05, 2, 4_000),
    ),
    "serve": (
        Size(FIXED_WORKLOADS, ("baseline", "AVR", "truncate"), 0.15, 4, 5_000),
        Size(("bscholes", "wrf"), ("baseline", "AVR", "truncate"), 0.05, 2, 500),
    ),
}


class GridLoad:
    """One caller running ``run_experiment(spec, jobs=1)`` passes back to back.

    Cold: each pass gets a fresh result cache and trace store.  Warm:
    set-up runs the spec once to fill a cache, then every pass re-reads
    it and must execute nothing.
    """

    def __init__(self, label: str, spec: ExperimentSpec, warm: bool) -> None:
        self.key = f"{label}@{spec.seeds[0]}"
        self.spec = spec
        self.warm = warm
        #: key -> digest of set-up runs the measured ops must reproduce
        self.references: dict[str, str] = {}
        self._passes = 0

    def setup(self, work: Path) -> None:
        self.work = work
        if self.warm:
            primed = run_experiment(self.spec, jobs=1, cache_dir=work / "cache")
            self.references[self.key] = digest(
                experiment_result_to_mapping(primed)["evaluations"]
            )

    def op(self, tracer: Tracer | None = None) -> Op:
        """One pass, recorded as a root span when ``tracer`` is given."""
        self._passes += 1
        cache = self.work / ("cache" if self.warm else f"cold-{self._passes}")
        start = time.perf_counter()
        try:
            if tracer is None:
                result = run_experiment(self.spec, jobs=1, cache_dir=cache)
            else:
                result = tracer.call(
                    ROOT_SPAN, run_experiment, self.spec, jobs=1, cache_dir=cache
                )
        except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc()
            return Op(start, time.perf_counter() - start, self.key, None, ok=False)
        elapsed = time.perf_counter() - start
        if not self.warm:
            shutil.rmtree(cache)
        return Op(
            start,
            elapsed,
            self.key,
            digest(experiment_result_to_mapping(result)["evaluations"]),
            ok=not self.warm or result.stats.executed == 0,
        )

    def warm_up(self) -> list[Op]:
        """One pass before timing starts.

        The first pass in a process runs about a third slower than the
        rest in the functional layer (the allocator grows its heap and
        maps fresh pages), so it is checked but not timed.
        """
        return [self.op()]

    def measure(
        self, seconds: float, yardstick: Yardstick
    ) -> tuple[list[Op], list[tuple[float, float]]]:
        """Passes until ``seconds`` have elapsed (at least one).

        Returns the ops and the intervals they kept the system busy:
        each pass, without the digesting and clean-up between passes.
        The yardstick is sampled before, between (when due) and after.
        """
        ops: list[Op] = []
        yardstick.sample()
        start = time.perf_counter()
        while not ops or time.perf_counter() < start + seconds:
            ops.append(self.op())
            yardstick.sample_if_due()
        yardstick.sample()
        return ops, [(op.start, op.start + op.seconds) for op in ops]

    def close(self) -> None:
        pass


class ServeLoad:
    """Two blocking clients against one in-process daemon with two workers.

    The clients run in rounds.  In each round both submit the same fresh
    (workload, seed) pair at once, so one launches its units and the
    other joins them in flight (cross-client dedup); then each client
    re-submits two pairs of earlier rounds, drawn by the seeded RNG,
    which the daemon serves from its cache.  Fresh pairs come in a fixed
    order, so every run does the same mix: two submissions in three are
    cache hits (the median measures the hit path) and one waits for
    queued and running units (the 90th percentile).  Between rounds the
    clients and the workers are idle, which is when the yardstick is
    sampled.
    """

    clients = 2
    workers = 2
    hits_per_round = 2

    def __init__(self, prefix: str, size: Size, seed: int) -> None:
        self.prefix = prefix
        self.size = size
        self.seed = seed
        self.references: dict[str, str] = {}
        self._rng = random.Random(seed)
        #: fresh pairs of finished rounds, which later rounds re-submit
        self._done: list[tuple[str, int]] = []

    def setup(self, work: Path) -> None:
        self.daemon = EvalDaemon(
            cache_dir=work / "serve-cache", port=0, workers=self.workers
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.daemon.start(), self.loop).result(60)
        self.connections = [
            ServeClient(port=self.daemon.port, timeout=120).connect()
            for _ in range(self.clients)
        ]

    def warm_up(self) -> list[Op]:
        """Nothing: submissions start right after set-up."""
        return []

    def _plan(self, index: int) -> tuple[tuple[str, int], list[list[tuple[str, int]]]]:
        """Round ``index``: its fresh pair, and each client's re-submissions."""
        workloads = self.size.workloads
        fresh = (
            workloads[index % len(workloads)],
            1000 * self.seed + index // len(workloads),
        )
        repeats = [
            [self._rng.choice(self._done) for _ in range(self.hits_per_round)]
            if self._done else []
            for _ in range(self.clients)
        ]
        return fresh, repeats

    def _submit(self, client: ServeClient, pair: tuple[str, int]) -> Op:
        workload, seed = pair
        key = f"{self.prefix}{workload}@{seed}"
        spec = self.size.spec(f"serve-{key}", (workload,), seed)
        start = time.perf_counter()
        accept_s = first_unit_s = None
        try:
            job = client.submit(spec.to_mapping())
            accept_s = time.perf_counter() - start
            stats: dict[str, Any] = {}
            result: dict[str, Any] = {}
            for event in client.events(job):
                name = event.get("event")
                if name == "unit_done" and first_unit_s is None:
                    first_unit_s = time.perf_counter() - start
                elif name == "stats":
                    stats = event["stats"]
                elif name == "result":
                    result = event["result"]
                elif name == "error":
                    raise ServeError(event.get("error", "job failed"))
        except (ServeError, OSError):
            traceback.print_exc()
            return Op(start, time.perf_counter() - start, key, None, ok=False)
        return Op(
            start,
            time.perf_counter() - start,
            key,
            digest(result["evaluations"]),
            accept_s=accept_s,
            first_unit_s=first_unit_s,
            stats=stats,
        )

    def measure(
        self, seconds: float, yardstick: Yardstick
    ) -> tuple[list[Op], list[tuple[float, float]]]:
        """Rounds until ``seconds`` have elapsed (at least one).

        Returns the ops and the one interval the clients kept the
        daemon busy: the whole window.
        """
        per_client: list[list[Op]] = [[] for _ in self.connections]
        plan: list = []
        rounds = 0
        start = time.perf_counter()

        def between_rounds() -> None:
            # Runs in one client thread while the other waits.
            nonlocal rounds
            if plan:
                self._done.append(plan[0])
            yardstick.sample()
            plan[:] = (
                self._plan(rounds)
                if not rounds or time.perf_counter() < start + seconds
                else ()
            )
            rounds += 1

        barrier = threading.Barrier(self.clients, action=between_rounds)

        def drive(index: int) -> None:
            client, ops = self.connections[index], per_client[index]
            try:
                while True:
                    barrier.wait()
                    if not plan:
                        return
                    fresh, repeats = plan
                    for pair in (fresh, *repeats[index]):
                        ops.append(self._submit(client, pair))
            except BaseException:
                barrier.abort()
                raise

        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = [op for ops in per_client for op in ops]
        return ops, [(start, time.perf_counter())]

    def close(self) -> None:
        for client in self.connections:
            client.close()
        asyncio.run_coroutine_threadsafe(self.daemon.shutdown(), self.loop).result(120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()


def make_load(name: str, seed: int, smoke: bool) -> GridLoad | ServeLoad:
    """The load behind benchmark workload ``name``."""
    pick = 1 if smoke else 0
    prefix = "smoke-" if smoke else ""
    if name in ("grid-cold", "grid-warm"):
        size = SIZES["grid"][pick]
        spec = size.spec(name, size.workloads, seed)
        return GridLoad(prefix + "grid", spec, warm=name == "grid-warm")
    if name == "avr-stream":
        size = SIZES["stream"][pick]
        spec = size.spec(name, size.workloads, seed)
        return GridLoad(prefix + "stream", spec, warm=False)
    if name == "serve-2client":
        return ServeLoad(prefix, SIZES["serve"][pick], seed)
    raise ValueError(f"unknown workload {name!r}")
