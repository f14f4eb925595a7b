"""TCP transport smoke tests (marked ``tcp``: real localhost sockets)."""

import asyncio

import pytest

from repro.protocols.common_coin import deterministic_coin
from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster, run_cluster
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

pytestmark = pytest.mark.tcp

WEIGHTS = [7, 5, 2, 1]
N = len(WEIGHTS)


_coin = deterministic_coin("tcp")


class TestTcpSmoke:
    def test_rbc_over_tcp_n4(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        cluster = run_cluster(
            lambda pid: BroadcastParty(pid, quorums),
            N,
            transport="tcp",
            setup=lambda c: c.party(0).broadcast_value(b"over-the-wire"),
            stop_when=lambda c: all(
                p.delivered == b"over-the-wire" for p in c.parties
            ),
        )
        # n SENDs + n^2 ECHOs + n^2 READYs, all actually serialized.
        assert cluster.metrics.by_type == {
            "RbcSend": N,
            "RbcEcho": N * N,
            "RbcReady": N * N,
        }
        assert cluster.metrics.bytes > 0
        assert cluster.metrics.elapsed_seconds > 0

    def test_smr_epoch_over_tcp_n4(self):
        quorums = NominalQuorums(n=N, t=1)
        cluster = run_cluster(
            lambda pid: SmrParty(pid, N, quorums, _coin),
            N,
            transport="tcp",
            setup=lambda c: [
                c.party(pid).propose_batch(0, f"tcp-batch-{pid}".encode())
                for pid in range(N)
            ],
            stop_when=lambda c: all(
                len(p.ordered_log(0)) == N for p in c.parties
            ),
        )
        logs = {tuple(p.ordered_log(0)) for p in cluster.parties}
        assert len(logs) == 1 and len(next(iter(logs))) == N

    def test_tcp_matches_inproc_outputs(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        def factory(pid):
            return BroadcastParty(pid, quorums)

        results = {}
        for transport in ("inproc", "tcp"):
            cluster = run_cluster(
                factory,
                N,
                transport=transport,
                setup=lambda c: c.party(1).broadcast_value(b"same-everywhere"),
                stop_when=lambda c: all(p.delivered for p in c.parties),
            )
            results[transport] = (
                [p.delivered for p in cluster.parties],
                cluster.metrics.bytes,
                dict(cluster.metrics.by_type),
            )
        assert results["inproc"] == results["tcp"]

    def test_listeners_close_on_stop(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            cluster = Cluster(factory_quorums(quorums), N, transport="tcp")
            await cluster.start()
            ports = [cluster.transport.address(pid)[1] for pid in range(N)]
            assert len(set(ports)) == N  # one listener per node
            await cluster.stop()
            # After stop, dialing any port must fail.
            for port in ports:
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(drive())


def factory_quorums(quorums):
    def factory(pid):
        return BroadcastParty(pid, quorums)

    return factory


class TestProcMeshHandshake:
    def test_frames_sent_before_the_peer_binds_are_held_not_dropped(self):
        # A proc worker's listener is up before its node binds; a faster
        # peer can dial and send in that window.  The frame must wait for
        # the handler instead of being dropped for lack of one.
        from repro.protocols.smr import BatchSend
        from repro.runtime.codec import default_registry
        from repro.runtime.transport import ProcMeshTransport

        early = BatchSend(epoch=0, proposer=0, payload=b"early")

        async def scenario():
            sender = ProcMeshTransport(default_registry())
            receiver = ProcMeshTransport(default_registry())
            peers = {
                0: ("127.0.0.1", await sender.listen()),
                1: ("127.0.0.1", await receiver.listen()),
            }
            got = []
            try:
                sender.configure(0, peers)
                await sender.send(0, 1, early)
                await asyncio.sleep(0.05)  # the frame reaches the receiver
                receiver.configure(1, peers)
                receiver.bind(1, lambda src, message: got.append((src, message)))
                for _ in range(200):
                    if got:
                        break
                    await asyncio.sleep(0.01)
                assert got == [(0, early)]
                assert receiver.frames_received == sender.frames_sent == 1
            finally:
                await sender.stop()
                await receiver.stop()

        asyncio.run(scenario())
