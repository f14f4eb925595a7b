"""Sim-backend epoch service: rotation, log integrity, determinism.

The acceptance bar for the service subsystem: at least three committee
generations under open-loop load, a gap-free prefix-consistent committed
log, identical per-party epoch digests, the incremental re-solve fast
path on small stake drifts, and byte-identical records across runs.
"""

import json
from collections import Counter

import pytest

from repro.api import Committee, CommitteeValidationError
from repro.protocols.smr import BatchSend
from repro.scenarios import get_scenario, run_scenario
from repro.service import (
    DriftSchedule,
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
    SimServiceBackend,
)
from repro.service.scenario import drift_schedule_for
from repro.service.service import decode_batch

N = 6


def _run_service(
    schedule=None, *, epochs=3, requests=36, rate=60.0, seed=0, backend=None
):
    committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=seed)
    if schedule is None:
        schedule = drift_schedule_for(tuple(committee.int_weights), epochs)
    manager = EpochManager(schedule, f_w="1/3")
    config = ServiceConfig(
        f_w="1/3", slot_interval=0.05, slots_per_epoch=3, max_time=60.0
    )
    load = LoadGenerator(rate, requests, payload_size=32, seed=seed)
    service = EpochService(
        backend or SimServiceBackend(seed=seed),
        manager,
        config,
        seed=seed,
        load=load,
    )
    service.run()
    return service


@pytest.fixture(scope="module")
def service():
    return _run_service()


class TestRotation:
    def test_runs_through_at_least_three_epochs(self, service):
        result = service.result()
        assert result.completed, result.error
        section = result.record()["service"]
        assert section["requests_committed"] == 36
        assert section["rotations"] >= 2
        assert len(section["epochs"]) >= 3

    def test_first_epoch_cold_then_incremental(self, service):
        modes = [e.solver_mode for e in service.metrics.epochs]
        assert modes[0] == "cold"
        assert all(m == "incremental" for m in modes[1:])
        assert service.manager.solver.incremental_hits >= 2

    def test_every_epoch_certifies_one_digest(self, service):
        assert len(service.epoch_party_digests) == len(service.metrics.epochs)
        for digests in service.epoch_party_digests:
            assert len(digests) == N
            assert len(set(digests.values())) == 1


class TestCommittedLog:
    def test_log_is_gap_free(self, service, holder_positions):
        by_slot = {}
        for slot, position, _payload in service.committed_log:
            by_slot.setdefault(slot, []).append(position)
        assert sorted(by_slot) == list(range(len(by_slot)))
        assert by_slot == holder_positions(service)

    def test_emission_order_is_prefix_consistent(self, service):
        keys = [(slot, pos) for slot, pos, _ in service.committed_log]
        assert keys == sorted(keys)

    def test_all_requests_appear_exactly_once(self, service):
        from repro.service.service import decode_batch

        load = LoadGenerator(60.0, 36, payload_size=32, seed=0)
        expected = {load.payload(i) for i in range(36)}
        committed = [
            (rid, payload)
            for _, _, batch in service.committed_log
            for rid, payload in decode_batch(batch)
        ]
        assert sorted(rid for rid, _ in committed) == list(range(36))
        assert {payload for _, payload in committed} == expected


class _CountingBackend(SimServiceBackend):
    """Sim backend that counts BatchSend messages per slot."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.batch_sends: Counter[int] = Counter()

    def spawn(self, factory, n):
        group = super().spawn(factory, n)
        network = group.handle
        send = network.send

        def counted(src, dst, message):
            if isinstance(message, BatchSend):
                self.batch_sends[message.epoch] += 1
            send(src, dst, message)

        network.send = counted
        return group


class TestProposerSet:
    def test_positions_follow_each_epochs_holders(self, holder_positions):
        committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=0)
        initial = tuple(committee.int_weights)
        # Epoch 1 lifts party 5 into the holders; epoch 2 flattens party 3.
        schedule = DriftSchedule(initial=initial, drifts=((1, 5, 200), (2, 3, 60)))
        service = _run_service(schedule)
        assert service.result().completed, service.result().error
        manager = EpochManager(schedule, f_w="1/3")
        holder_sets = {
            frozenset(
                p for p, t in enumerate(manager.next_committee(e)[1].assignment) if t
            )
            for e in range(len(service.metrics.epochs))
        }
        assert len(holder_sets) == len(service.metrics.epochs) >= 3
        by_slot = {}
        for slot, position, _payload in service.committed_log:
            by_slot.setdefault(slot, []).append(position)
        assert by_slot == holder_positions(service)

    def test_only_holders_send_and_every_request_commits_once(self):
        backend = _CountingBackend(seed=0)
        service = _run_service(backend=backend)
        assert service.result().completed, service.result().error
        manager = EpochManager(service.manager.schedule, f_w="1/3")
        expected = {}
        for record in service.metrics.epochs:
            tickets = manager.next_committee(record.epoch)[1].assignment
            holders = sum(1 for t in tickets if t)
            assert holders < record.n
            for slot in range(record.first_slot, record.last_slot):
                expected[slot] = holders * record.n
        assert dict(backend.batch_sends) == expected
        rids = [
            rid
            for _, _, batch in service.committed_log
            for rid, _payload in decode_batch(batch)
        ]
        assert sorted(rids) == list(range(36))


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, service):
        again = _run_service()
        a = json.dumps(service.result().record(), sort_keys=True)
        b = json.dumps(again.result().record(), sort_keys=True)
        assert a == b
        assert again.committed_log == service.committed_log


class TestInfeasibleRotation:
    def test_zeroed_committee_fails_with_epoch_context(self):
        committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=0)
        dead = DriftSchedule(
            initial=tuple(committee.int_weights),
            drifts=tuple((1, i, 0) for i in range(N)),
        )
        service = _run_service(dead)
        result = service.result()
        assert not result.completed
        assert "epoch 1" in result.error
        # Epoch 0's work is preserved: the log up to the failure is intact.
        assert service.metrics.epochs

    def test_out_of_range_drift_index_rejected(self):
        with pytest.raises(CommitteeValidationError):
            DriftSchedule(initial=(10, 10), drifts=((1, 5, 3),)).resolve(1)


class TestHarnessRouting:
    def test_registry_scenario_completes_on_sim(self):
        record = run_scenario(get_scenario("epoch-service"), backend="sim").record()
        assert record["completed"]
        service = record["service"]
        assert service["requests_committed"] == 36
        assert len(service["epochs"]) >= 3

    def test_service_workload_requires_smr(self):
        spec = get_scenario("epoch-service")
        bad = type(spec)(
            name="bad",
            protocol="rbc",
            weights=spec.weights,
            workload=spec.workload,
        )
        with pytest.raises(ValueError, match="smr"):
            run_scenario(bad, backend="sim")
