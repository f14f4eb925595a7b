"""Live-runtime epoch service: rotation over the in-process transport.

Wall-clock pacing makes slot counts timing-dependent here, so the test
asserts structural invariants (completion, at least one rotation, a
gap-free log holding exactly each epoch's ticket holders' positions,
uniform digests) rather than exact slot placement -- the sim tests pin
those deterministically.
"""

from repro.api import Committee
from repro.service import (
    EpochManager,
    EpochService,
    InprocServiceBackend,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for

WEIGHTS = (40, 30, 20, 10)


def test_inproc_rotation_commits_everything(holder_positions):
    committee = Committee.from_weights(WEIGHTS)
    committee.validate(f_w="1/3")
    manager = EpochManager(drift_schedule_for(WEIGHTS, epochs=3), f_w="1/3")
    config = ServiceConfig(
        f_w="1/3", slot_interval=0.02, slots_per_epoch=2, max_time=30.0
    )
    load = LoadGenerator(200.0, 12, payload_size=16, seed=1)
    service = EpochService(
        InprocServiceBackend(), manager, config, seed=1, load=load
    )
    result = service.run()

    assert result.completed, result.error
    section = result.record()["service"]
    assert section["requests_committed"] == 12
    assert section["rotations"] >= 1

    n = len(WEIGHTS)
    by_slot = {}
    for slot, position, _payload in service.committed_log:
        by_slot.setdefault(slot, []).append(position)
    assert sorted(by_slot) == list(range(len(by_slot)))
    expected = holder_positions(service)
    for slot, positions in by_slot.items():
        assert sorted(positions) == expected[slot]

    for digests in service.epoch_party_digests:
        assert len(digests) == n
        assert len(set(digests.values())) == 1

    # Latencies are wall-clock here; they exist and are sane.
    assert section["latency_p50_s"] is not None
    assert 0 < section["latency_p50_s"] < 30.0
