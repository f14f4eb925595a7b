"""One run of one benchmark workload against the epoch service.

Run as a script by ``run.py`` in a fresh interpreter (so the parent can
read this process's peak RSS alone)::

    python3 e2ebench/workload.py --workload NAME --seed N --seconds S --trace 0|1

It prints the number of requests it will attempt, then one JSON record:
the correctness gate's verdict, the request counts, the metrics and a
few details.  The service is driven as ``repro serve`` drives it --
``EpochService.run()`` on a sim or inproc backend under a
``LoadGenerator`` -- and observed through its public ``on_committed``
subscription.

The workloads (see ``WORKLOADS``):

* ``aptos-slot-sim`` -- the calibrated Aptos snapshot (104 parties, 63
  tickets under WR(1/3, 1/2)) on the discrete-event simulator, uniform
  0.01-0.1 s message delay.  A burst of 1000 requests all fall due
  before the first slot cut, so the SMR work is exactly one slot
  (~2.26M messages, 99.5% BatchEcho/BatchReady).  Once every request is
  committed the subscriber rotates the idle committee ``ROTATIONS``
  times, so ``handover_p50_s`` is a median of threshold-signed
  checkpoint handovers at real committee size; every other metric stops
  at the slot's full commitment, before them.  1000 is the smallest
  burst whose latency sample has ``TAIL_SAMPLES`` beyond its p99, and
  ``max_batch`` is raised to hold it, so the burst fits in one slot (the
  slot sends 2,260,544 messages for 20 requests and for 1000).  Puts
  the sim event loop and network and the weighted quorum checks in
  front; judges ROADMAP item 2 (cost of a slot).
* ``aptos-slot-inproc`` -- the same committee, burst and rotations on
  the live in-process backend.  Delivery is instant, so latency is
  processor time only; the gap to the sim row is the backend cost
  (codec, transport, asyncio).  Judges ROADMAP items 2 and 5.
* ``epochs-inproc`` -- open-loop Poisson arrivals at 400 req/s on the 12
  heaviest Aptos validators (the scenario engine's truncation), rotating
  every 4 slots with one party's stake drifting per rotation.  The only
  row with many small slots, many handovers (incremental re-solve,
  threshold-signed checkpoints), state that grows with run length and a
  p99 sample.  Instant delivery.  400 req/s is well below saturation:
  on a 2-core x86 box latency is flat from 100 to 800 req/s (p50 56-60
  ms) and the backlog grows only past ~4700 req/s; at 400 req/s a 5 s
  service has the 2000 samples a p99 needs.  Latency grows with service
  length (p50 ~58 ms at 10 s, ~230 ms at 20 s), so the length is fixed:
  the run is ``--seconds / 5`` independent services of 5 s each and
  reports the median of each metric over them.  One service's p99 is set
  by the two or three slots in which a full garbage collection -- its
  pause growing with the service's never-freed state -- lands on a
  handover, so a single service is too few samples.  Judges ROADMAP
  items 4 and 5.

Request latency runs from a request's *due* time (its
``LoadGenerator.arrival_times`` entry) to the emission of its batch
through ``on_committed`` -- so a loop stalled by slot processing is
charged for the wait it imposes on arrivals, which the service's own
submit-to-commit numbers (kept in the details) do not see.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api.committee import Committee  # noqa: E402
from repro.service import (  # noqa: E402
    EpochManager,
    EpochService,
    InprocServiceBackend,
    LoadGenerator,
    ServiceConfig,
    SimServiceBackend,
)
from repro.service.metrics import ServiceResult  # noqa: E402
from repro.service.scenario import drift_schedule_for  # noqa: E402
from repro.service.service import decode_batch  # noqa: E402

from layers import TAIL_SAMPLES, install, percentile, report  # noqa: E402
from tracer import Tracer  # noqa: E402

#: a seed no tuning run of this benchmark used: later claims re-check on it
HELD_OUT_SEED = 7919
#: set-ups (``build`` plus forming epoch 0's committee) timed before the
#: run, and again after it; ``setup_s`` is the median of all of them
SETUP_REPEATS = 15
SLOT_INTERVAL = ServiceConfig().slot_interval
#: handovers after a burst, back to back on the idle service
ROTATIONS = 19
#: how often (scenario seconds) the subscriber looks for a finished handover
POLL = 0.001
#: drifted epochs prepared by the weight schedule (rotations past it keep
#: the last vector)
SCHEDULE_EPOCHS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "sim" or "inproc"
    #: heaviest validators of the Aptos snapshot to keep (None: all 104)
    committee_n: Optional[int]
    #: > 0: one-slot burst of this many requests, then ROTATIONS handovers
    burst: int
    #: open-loop Poisson rate (req/s) when ``burst`` is 0
    rate: float
    slots_per_epoch: int
    #: open-loop length of one service (s); a run of ``--seconds`` is
    #: that many independent services, each metric their median
    service_seconds: float
    #: the service's hard stop, far above the measured run length, so a
    #: timeout means a hang (sim: virtual seconds; inproc: wall seconds)
    max_time: float

    def subruns(self, seconds: float) -> int:
        """Services one run of ``seconds`` is made of.  A burst is one
        slot, however long it takes (~30-40 s for the Aptos rows on a
        2-core x86 box)."""
        if self.burst:
            return 1
        return max(1, round(seconds / self.service_seconds))

    def requests(self) -> int:
        """Requests one service of this workload is offered."""
        if self.burst:
            return self.burst
        # at least enough samples for a p99 with TAIL_SAMPLES beyond it
        return max(100 * TAIL_SAMPLES, round(self.rate * self.service_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("aptos-slot-sim", "sim", None, 1000, 0.0, 0, 0.0, 60.0),
        Workload("aptos-slot-inproc", "inproc", None, 1000, 0.0, 0, 0.0, 120.0),
        Workload("epochs-inproc", "inproc", 12, 0, 400.0, 4, 5.0, 60.0),
    )
}


class Subscriber:
    """The ``on_committed`` subscriber: commit times, gate evidence and
    the committed-log digest, from the emitted batches alone.  After a
    burst it also drives the back-to-back handovers."""

    def __init__(self, load: LoadGenerator, backend, rotations: int) -> None:
        self.load = load
        self.backend = backend
        self.rotations = rotations
        self.service: Optional[EpochService] = None
        #: request id -> emission time (first valid emission only)
        self.commit_time: dict[int, float] = {}
        #: emissions of an unknown, repeated or altered request
        self.bad = 0
        self.in_order = True
        self._rotating = False
        #: after a burst: ``perf_counter`` and ``(messages, bytes)`` when its
        #: slot was fully committed
        self.slot_end: Optional[float] = None
        self.slot_totals: Optional[tuple[int, int]] = None
        self._last: tuple[int, int] = (-1, -1)
        self._digest = hashlib.sha256()

    def __call__(self, slot: int, position: int, payload: bytes) -> None:
        now = self.backend.now()
        if (slot, position) <= self._last:
            self.in_order = False
        self._last = (slot, position)
        self._digest.update(struct.pack(">III", slot, position, len(payload)))
        self._digest.update(payload)
        total = self.load.total
        for rid, body in decode_batch(payload):
            if (
                0 <= rid < total
                and rid not in self.commit_time
                and body == self.load.payload(rid)
            ):
                self.commit_time[rid] = now
            else:
                self.bad += 1
        if self.rotations and not self._rotating and len(self.commit_time) == total:
            # The burst's slot is fully committed: its cost ends here, and
            # the handovers that follow only feed ``handover_p50_s``.
            self.slot_end = time.perf_counter()
            self.slot_totals = self.backend.message_totals()[:2]
            # Called before the service sees its last slot complete, so
            # it rotates instead of finishing; open-ended (no expected
            # request count) it then idles between handovers.
            self._rotating = True
            self.service.expected_requests = None
            self.service.trigger_rotation()
            self.backend.call_later(POLL, self._next_rotation)

    def _next_rotation(self) -> None:
        service = self.service
        if service.finished:
            return
        if service.phase == "running":
            if service.metrics.rotations >= self.rotations:
                # done: the service finishes at its next slot tick
                service.expected_requests = self.load.total
                return
            service.trigger_rotation()
        self.backend.call_later(POLL, self._next_rotation)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


@dataclass
class Setup:
    service: EpochService
    load: LoadGenerator
    subscriber: Subscriber


def build(workload: Workload, seed: int) -> Setup:
    """Everything before ``service.run()``."""
    committee = Committee.from_chain("aptos", n=workload.committee_n)
    committee.validate(f_w="1/3")
    # Rotation e bumps one party's stake by ~1/8, so every re-solve
    # after the first takes the incremental path.
    manager = EpochManager(
        drift_schedule_for(tuple(committee.int_weights), SCHEDULE_EPOCHS), f_w="1/3"
    )
    config = ServiceConfig(
        f_w="1/3",
        slots_per_epoch=workload.slots_per_epoch,
        max_time=workload.max_time,
        max_batch=max(ServiceConfig().max_batch, workload.burst),
    )
    if workload.backend == "sim":
        backend = SimServiceBackend(seed=seed)
    else:
        backend = InprocServiceBackend()
    requests = workload.requests()
    # A burst's mean span is half a slot interval; the gate checks that
    # it really landed in one slot.
    rate = requests / (SLOT_INTERVAL / 2) if workload.burst else workload.rate
    load = LoadGenerator(rate, requests, seed=seed)
    subscriber = Subscriber(load, backend, ROTATIONS if workload.burst else 0)
    service = EpochService(
        backend,
        manager,
        config,
        name=workload.name,
        seed=seed,
        load=load,
        on_committed=subscriber,
    )
    subscriber.service = service
    return Setup(service, load, subscriber)


@dataclass
class Pass:
    """What one service run leaves for the report (the service itself,
    with all its party state, is dropped when the run ends)."""

    #: the whole ``service.run()``
    wall: float
    #: the run phase the end-to-end metrics measure, with its messages and
    #: bytes: a burst's one slot, up to its full commitment (the handovers
    #: after it are left out); an open-loop service's whole run
    phase_wall: float
    messages: int
    bytes: int
    result: ServiceResult
    problems: list[str]
    digest: str
    arrivals: tuple[float, ...]
    commit_time: dict[int, float]
    #: traced runs only: slot-cut time per request and generator lateness
    cut_time: Optional[dict[int, float]] = None
    lag: Optional[list[float]] = None


def gate(workload: Workload, setup: Setup, result: ServiceResult) -> list[str]:
    """Reasons this run is not correct (empty when it is)."""
    service, load, sub = setup.service, setup.load, setup.subscriber
    problems = []
    if not result.completed:
        problems.append(f"run did not complete: {result.error}")
    if sub.bad:
        problems.append(f"{sub.bad} emissions of unknown, repeated or altered requests")
    if not sub.in_order:
        problems.append("batches emitted out of (slot, position) order")
    missing = load.total - len(sub.commit_time)
    if missing:
        problems.append(f"{missing} of {load.total} requests never committed")
    for epoch, digests in enumerate(service.epoch_party_digests):
        if len(set(digests.values())) != 1:
            problems.append(f"replicas disagree on epoch {epoch}'s log digest")
    if workload.burst:
        shape = (result.service["slots"], result.service["rotations"])
        if shape != (1, ROTATIONS):
            problems.append(
                f"burst ran {shape[0]} slots and {shape[1]} rotations, "
                f"not 1 and {ROTATIONS}"
            )
    return problems


def run_pass(workload: Workload, seed: int, tracer=None) -> Pass:
    """Build, run and gate one service; ``tracer`` (if any) is installed
    around ``service.run()`` only."""
    setup = build(workload, seed)
    observers = install(tracer, setup) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = setup.service.run()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    sub = setup.subscriber
    if sub.slot_end is not None:
        phase_wall = sub.slot_end - start
        messages, bytes_total = sub.slot_totals
    else:
        phase_wall, messages, bytes_total = wall, result.messages, result.bytes
    return Pass(
        wall=wall,
        phase_wall=phase_wall,
        messages=messages,
        bytes=bytes_total,
        result=result,
        problems=gate(workload, setup, result),
        digest=setup.subscriber.digest,
        arrivals=setup.load.arrival_times,
        commit_time=setup.subscriber.commit_time,
        cut_time=observers.cut_time if observers else None,
        lag=observers.lag if observers else None,
    )


def run_passes(
    workload: Workload, seed: int, seconds: float, tracer=None
) -> list[Pass]:
    """The run's services, one after another, each from a seed derived
    from the run's."""
    passes = []
    subruns = workload.subruns(seconds)
    for index in range(subruns):
        gc.collect()
        sub_seed = seed if subruns == 1 else seed * subruns + index
        passes.append(run_pass(workload, sub_seed, tracer))
    return passes


def end_to_end(run: Pass) -> dict:
    """Every end-to-end metric of one untraced service's run phase as
    ``name -> value`` (sim latencies are virtual seconds, inproc ones wall
    seconds); ``handover_p50_s`` alone comes from the handovers after it."""
    committed = len(run.commit_time)
    latencies = sorted(t - run.arrivals[rid] for rid, t in run.commit_time.items())
    handovers = sorted(e["rotation_seconds"] for e in run.result.service["epochs"][1:])
    return {
        "wall_s": run.phase_wall,
        "ops_per_s": committed / run.phase_wall,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p99_s": percentile(latencies, 99),
        "handover_p50_s": percentile(handovers, 50),
        "msgs_per_req": run.messages / committed,
        "bytes_per_req": run.bytes / committed,
    }


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "handover_p50_s": "s",
    "msgs_per_req": "count",
    "bytes_per_req": "B",
}


def source_hash() -> str:
    """Digest of the program and of this benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_replay(workload: Workload, seed: int, digest: str) -> Optional[str]:
    """Sim runs must replay: the committed-log digest of a (workload,
    seed) is recorded per source tree in the checkout and compared on
    every later run of the same code.  Never pinned across commits."""
    state = ROOT / ".e2ebench_state" / "sim_digests.json"
    key = f"{workload.name}|{seed}|{source_hash()}"
    known = json.loads(state.read_text()) if state.exists() else {}
    previous = known.get(key)
    if previous is not None:
        return None if previous == digest else f"digest {digest} != earlier {previous}"
    known[key] = digest
    state.parent.mkdir(exist_ok=True)
    tmp = state.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(state)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # first line, so a parent that must kill a hung run still knows how
    # many requests it failed
    attempted = workload.subruns(args.seconds) * workload.requests()
    print(json.dumps({"attempted": attempted}), flush=True)

    def time_setups() -> None:
        for _ in range(SETUP_REPEATS):
            # not timed: the garbage of the run before, so no collection
            # of it lands inside a set-up
            gc.collect()
            start = time.perf_counter()
            service = build(workload, args.seed).service
            # and epoch 0's committee, as ``service.start()`` forms it
            # before the first slot (the run forms it again: start() is
            # inside ``service.run()``)
            committee, _tickets = service.manager.next_committee(0)
            committee.quorums(service.config.f_w)
            setup_times.append(time.perf_counter() - start)

    # Half the set-ups before the run and half after, so one slow moment
    # of the machine cannot set the median alone.
    setup_times: list[float] = []
    if not args.trace:
        time_setups()
    runs = run_passes(workload, args.seed, args.seconds)
    if not args.trace:
        time_setups()
    problems = [p for run in runs for p in run.problems]
    digest = hashlib.sha256("".join(run.digest for run in runs).encode()).hexdigest()
    if workload.backend == "sim" and not problems:
        mismatch = check_replay(workload, args.seed, digest)
        if mismatch:
            problems.append(f"sim run did not replay: {mismatch}")

    if args.trace:
        # Traced passes of the same services, after the untraced ones,
        # give the overhead ratio and (on sim) a second replay check.
        tracer = Tracer()
        traced = run_passes(workload, args.seed, args.seconds, tracer)
        problems.extend(p for run in traced for p in run.problems)
        if workload.backend == "sim" and [r.digest for r in traced] != [
            r.digest for r in runs
        ]:
            problems.append("traced sim run committed a different log")
        metrics = report(tracer, traced, sum(run.wall for run in runs))
    else:
        per_run = [end_to_end(run) for run in runs]
        metrics = {"setup_s": (statistics.median(setup_times), "s")}
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            value = None if None in values else statistics.median(values)
            metrics[name] = (value, UNITS[name])

    problems.extend(
        f"{name} has no value (too few samples)"
        for name, (value, _unit) in metrics.items()
        if value is None
    )
    committed = sum(len(run.commit_time) for run in runs)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "committed": committed,
        "failed_frac": (attempted - committed) / attempted,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "details": {
            "committed_log_digest": digest,
            "latency_clock": "virtual" if workload.backend == "sim" else "wall",
            "runs": [
                {
                    "wall_s": run.phase_wall,
                    "service_wall_s": run.wall,
                    "slots": run.result.service["slots"],
                    "rotations": run.result.service["rotations"],
                    "messages": run.messages,
                    "bytes": run.bytes,
                    "service_messages": run.result.messages,
                    "service_bytes": run.result.bytes,
                    "service_latency_p50_s": run.result.service["latency_p50_s"],
                    "service_latency_p99_s": run.result.service["latency_p99_s"],
                }
                for run in runs
            ],
            "setup_samples_s": setup_times,
        },
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
