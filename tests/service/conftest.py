"""Shared check for the epoch-service tests: the exact log shape.

Only an epoch's ticket holders propose, so each committed slot holds one
batch per holder, at the holder's coin-keyed position.  The holders are
re-derived here from an independent solve of the service's own weight
schedule, not read back from the service.
"""

import pytest

from repro.protocols.smr import batch_position
from repro.service import EpochManager


def _holder_positions(service) -> dict[int, list[int]]:
    """slot -> sorted batch positions of that slot's epoch's holders."""
    manager = EpochManager(service.manager.schedule, f_w=service.manager.f_w)
    out = {}
    for record in service.metrics.epochs:
        _committee, tickets = manager.next_committee(record.epoch)
        holders = [p for p, t in enumerate(tickets.assignment) if t > 0]
        for slot in range(record.first_slot, record.last_slot):
            coin = service.coin(slot)
            out[slot] = sorted(batch_position(p, coin, record.n) for p in holders)
    return out


@pytest.fixture
def holder_positions():
    return _holder_positions
