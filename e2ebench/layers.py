"""The traced run's layer map: which public function of which module is
timed as which layer, and the per-layer metrics computed from the spans.

Layers are this repository's modules on the service path: ``sim``,
``runtime``, ``protocols``, ``weighted``, ``service`` and ``api`` over
``core``, ``crypto`` and ``codes``.  ``recovery``, ``chaos``,
``adversary`` and ``parallel`` are not on that path and are not traced.
A layer a workload does not exercise reports zero (``sim.*`` on the
inproc rows, ``runtime.*`` on the sim row, ``codes.*`` everywhere today).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.api.policy import IncrementalSolver
from repro.codes.reed_solomon import ReedSolomon
from repro.crypto.threshold_sig import ThresholdSignatureScheme
from repro.protocols.checkpointing import CheckpointParty
from repro.protocols.smr import SmrParty
from repro.runtime.codec import CodecRegistry
from repro.runtime.faults import FaultController
from repro.runtime.transport import InProcTransport
from repro.service.service import EpochService, decode_batch
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.weighted.quorum import WeightedQuorums

from tracer import Tracer

__all__ = ["TAIL_SAMPLES", "install", "percentile", "report"]

#: a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

_RS_ENCODERS = ("encode", "encode_bytes", "encode_blocks")
_RS_DECODERS = (
    "decode_erasures",
    "decode_errors",
    "decode_bytes",
    "decode_erasures_blocks",
    "decode_errors_blocks",
)
_QUORUM_CHECKS = (
    "echo_quorum",
    "ready_amplify",
    "deliver_quorum",
    "storage_quorum",
)


def percentile(sorted_values: list[float], p: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` for an empty sample or a tail
    percentile with fewer than ``TAIL_SAMPLES`` samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p * n / 100))
    if n == 0 or (p > 50 and n - rank < TAIL_SAMPLES):
        return None
    return sorted_values[rank - 1]


class ServiceObservers:
    """Request timings only the traced run takes: when each request was
    actually submitted and when its slot was cut."""

    def __init__(self, setup) -> None:
        load = setup.load
        self.clock = setup.service.backend.now
        self.arrivals = load.arrival_times
        self._index = {load.payload(i): i for i in range(load.total)}
        #: request id -> slot-cut time (``SmrParty.propose_batch``)
        self.cut_time: dict[int, float] = {}
        #: generator lateness per submission: actual submit minus due time
        self.lag: list[float] = []

    def on_submit(self, _result, args) -> None:
        index = self._index.get(args[1])
        if index is not None:
            self.lag.append(self.clock() - self.arrivals[index])

    def on_propose(self, _result, args) -> None:
        now = self.clock()
        for rid, _body in decode_batch(args[2]):
            self.cut_time.setdefault(rid, now)


def install(tracer: Tracer, setup) -> ServiceObservers:
    observers = ServiceObservers(setup)
    t = tracer

    def quorum_outcome(result, args) -> None:
        counts = t.counts
        counts["weighted.quorum.hits"] += bool(result)
        counts["weighted.quorum.senders"] += len(args[1])

    def solver_outcome(_result, args) -> None:
        t.counts["api.policy.incremental"] += args[0].last_mode == "incremental"

    for counter in (
        "weighted.quorum.hits",
        "weighted.quorum.senders",
        "api.policy.incremental",
    ):
        t.counts.setdefault(counter, 0)

    t.span(Simulator, "step", "sim.events", "sim.events.count")
    t.span(Network, "send", "sim.network", "sim.network.sends")
    t.span(CodecRegistry, "encode", "runtime.codec.encode", "runtime.codec.encodes")
    t.span(CodecRegistry, "decode", "runtime.codec.decode", "runtime.codec.decodes")
    t.async_span(
        InProcTransport, "send", "runtime.transport", "runtime.transport.sends"
    )
    t.span(FaultController, "decide", "runtime.faults", "runtime.faults.decides")
    for name in _QUORUM_CHECKS:
        t.span(
            WeightedQuorums,
            name,
            "weighted.quorum",
            "weighted.quorum.checks",
            after=quorum_outcome,
        )
    t.span(SmrParty, "receive", "protocols.smr", "protocols.smr.receives")
    t.span(SmrParty, "propose_batch", "protocols.smr", after=observers.on_propose)
    t.span(CheckpointParty, "receive", "protocols.checkpointing")
    t.span(CheckpointParty, "sign_checkpoint", "protocols.checkpointing")
    # Service code runs inside these protocol callbacks (commit
    # bookkeeping, checkpoint start, next-epoch activation): time it as
    # the service layer, not as the protocol that called it.
    t.span_init_callback(SmrParty, "on_commit", "service", "protocols.smr.commits")
    t.span_init_callback(CheckpointParty, "on_certified", "service")
    t.span(EpochService, "submit", "service", after=observers.on_submit)
    t.span(
        IncrementalSolver,
        "solve",
        "api.policy",
        "api.policy.solves",
        after=solver_outcome,
    )
    t.span(ThresholdSignatureScheme, "keygen", "crypto.threshold_sig.keygen")
    t.span(ThresholdSignatureScheme, "sign_share", "crypto.threshold_sig.sign")
    t.span(ThresholdSignatureScheme, "verify_share", "crypto.threshold_sig.verify")
    t.span(
        ThresholdSignatureScheme, "verify_shares_batch", "crypto.threshold_sig.verify"
    )
    t.span(ThresholdSignatureScheme, "combine", "crypto.threshold_sig.combine")
    for name in _RS_ENCODERS:
        t.span(ReedSolomon, name, "codes.reed_solomon", "codes.reed_solomon.encodes")
    for name in _RS_DECODERS:
        t.span(ReedSolomon, name, "codes.reed_solomon", "codes.reed_solomon.decodes")
    return observers


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(tracer: Tracer, traced: list, untraced_wall: float) -> dict:
    """Every per-layer metric of a run's traced :class:`workload.Pass`
    list (one tracer across them) as ``name -> (value, unit)``."""
    s, c = tracer.self_s, tracer.counts
    queue_wait, commit_wait, lag = [], [], []
    committed = slots = 0
    wall = 0.0
    for run in traced:
        for rid, t in run.commit_time.items():
            queue_wait.append(run.cut_time[rid] - run.arrivals[rid])
            commit_wait.append(t - run.cut_time[rid])
        lag.extend(run.lag)
        committed += len(run.commit_time)
        slots += run.result.service["slots"]
        wall += run.wall
    quorum_checks = c["weighted.quorum.checks"]
    return {
        "sim.events.count": (c["sim.events.count"], "count"),
        "sim.events.self_s": (s["sim.events"], "s"),
        "sim.network.sends": (c["sim.network.sends"], "count"),
        "sim.network.self_s": (s["sim.network"], "s"),
        "runtime.codec.encodes": (c["runtime.codec.encodes"], "count"),
        "runtime.codec.encode_s": (s["runtime.codec.encode"], "s"),
        "runtime.codec.decodes": (c["runtime.codec.decodes"], "count"),
        "runtime.codec.decode_s": (s["runtime.codec.decode"], "s"),
        "runtime.transport.sends": (c["runtime.transport.sends"], "count"),
        "runtime.transport.self_s": (s["runtime.transport"], "s"),
        "runtime.faults.decides": (c["runtime.faults.decides"], "count"),
        "runtime.faults.self_s": (s["runtime.faults"], "s"),
        "weighted.quorum.checks": (quorum_checks, "count"),
        "weighted.quorum.self_s": (s["weighted.quorum"], "s"),
        "weighted.quorum.hit_ratio": (
            _ratio(c["weighted.quorum.hits"], quorum_checks),
            "ratio",
        ),
        "weighted.quorum.senders_mean": (
            _ratio(c["weighted.quorum.senders"], quorum_checks),
            "count",
        ),
        "protocols.smr.receives": (c["protocols.smr.receives"], "count"),
        "protocols.smr.self_s": (s["protocols.smr"], "s"),
        "protocols.smr.commits": (c["protocols.smr.commits"], "count"),
        "protocols.smr.receives_per_commit": (
            _ratio(c["protocols.smr.receives"], c["protocols.smr.commits"]),
            "count",
        ),
        "protocols.checkpointing.self_s": (s["protocols.checkpointing"], "s"),
        "api.policy.solves": (c["api.policy.solves"], "count"),
        "api.policy.solve_s": (s["api.policy"], "s"),
        "api.policy.incremental_frac": (
            _ratio(c["api.policy.incremental"], c["api.policy.solves"]),
            "ratio",
        ),
        "crypto.threshold_sig.keygen_s": (s["crypto.threshold_sig.keygen"], "s"),
        "crypto.threshold_sig.sign_s": (s["crypto.threshold_sig.sign"], "s"),
        "crypto.threshold_sig.verify_s": (s["crypto.threshold_sig.verify"], "s"),
        "crypto.threshold_sig.combine_s": (s["crypto.threshold_sig.combine"], "s"),
        "codes.reed_solomon.encodes": (c["codes.reed_solomon.encodes"], "count"),
        "codes.reed_solomon.decodes": (c["codes.reed_solomon.decodes"], "count"),
        "codes.reed_solomon.self_s": (s["codes.reed_solomon"], "s"),
        "service.self_s": (s["service"], "s"),
        "service.slots": (slots, "count"),
        "service.batch_fill": (_ratio(committed, slots), "count"),
        "service.queue_wait_p50_s": (percentile(sorted(queue_wait), 50), "s"),
        "service.commit_wait_p50_s": (percentile(sorted(commit_wait), 50), "s"),
        "service.load.lag_p99_s": (percentile(sorted(lag), 99), "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        "trace.unaccounted_s": (wall - tracer.total_self(), "s"),
    }
