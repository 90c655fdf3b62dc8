"""Tests for the message-passing fabric."""

import numpy as np
import pytest

from repro.machine.faults import FaultPlan
from repro.machine.network import Message, Network, payload_nbytes


class TestDelivery:
    def test_bsp_semantics(self):
        net = Network(2)
        net.send(0, 1, "t", "hello")
        # Not receivable until delivered.
        with pytest.raises(LookupError, match="no delivered message"):
            net.recv(1, 0, "t")
        assert net.deliver() == 1
        assert net.recv(1, 0, "t") == "hello"

    def test_fifo_per_channel(self):
        net = Network(2)
        for i in range(5):
            net.send(0, 1, "t", i)
        net.deliver()
        assert [net.recv(1, 0, "t") for _ in range(5)] == list(range(5))

    def test_tags_are_independent(self):
        net = Network(2)
        net.send(0, 1, "a", 1)
        net.send(0, 1, "b", 2)
        net.deliver()
        assert net.recv(1, 0, "b") == 2
        assert net.recv(1, 0, "a") == 1

    def test_probe_and_drain(self):
        net = Network(3)
        net.send(0, 2, "t", "x")
        net.send(1, 2, "t", "y")
        net.deliver()
        assert net.probe(2, 0, "t") and net.probe(2, 1, "t")
        assert net.drain(2, "t") == [(0, "x"), (1, "y")]
        assert not net.probe(2, 0, "t")

    def test_idle(self):
        net = Network(2)
        assert net.idle
        net.send(0, 1, "t", 1)
        assert not net.idle
        net.deliver()
        assert not net.idle
        net.recv(1, 0, "t")
        assert net.idle


class TestValidation:
    def test_bad_ranks(self):
        net = Network(2)
        with pytest.raises(ValueError, match="source"):
            net.send(2, 0, "t", 1)
        with pytest.raises(ValueError, match="destination"):
            net.send(0, 5, "t", 1)
        with pytest.raises(ValueError, match="at least one rank"):
            Network(0)

    def test_negative_ranks(self):
        net = Network(3)
        with pytest.raises(ValueError, match=r"source rank -1 out of range"):
            net.send(-1, 0, "t", 1)
        with pytest.raises(ValueError, match=r"destination rank -2 out of range"):
            net.send(0, -2, "t", 1)

    def test_recv_error_carries_bsp_hint(self):
        """The LookupError explains the BSP rule, not just 'not found'."""
        net = Network(2)
        with pytest.raises(LookupError, match="BSP programs may only receive"):
            net.recv(1, 0, "t")
        # Same after an unrelated delivery: wrong tag, wrong source.
        net.send(0, 1, "other", 1)
        net.deliver()
        with pytest.raises(LookupError, match=r"rank 1: no delivered message from 0"):
            net.recv(1, 0, "t")
        with pytest.raises(LookupError, match="BSP"):
            net.recv(0, 1, "other")  # reversed direction


class TestStats:
    def test_counts_and_bytes(self):
        net = Network(2)
        payload = np.zeros(10, dtype=np.float64)
        net.send(0, 1, "t", payload)
        net.send(0, 1, "t", b"abcd")
        assert net.stats.messages == 2
        assert net.stats.bytes == 80 + 4
        assert net.stats.per_channel[(0, 1)] == 2

    def test_message_nbytes(self):
        assert Message(0, 1, "t", b"xyz").nbytes == 3
        assert Message(0, 1, "t", np.zeros(4, dtype=np.int32)).nbytes == 16
        assert Message(0, 1, "t", "text").nbytes > 0

    def test_container_nbytes_counts_elements(self):
        """Regression: sys.getsizeof on a list ignores element sizes, so
        a list of arrays used to undercount by the full buffer sizes.
        One level of recursion charges the elements too."""
        arrays = [np.zeros(100, dtype=np.float64) for _ in range(3)]
        nbytes = Message(0, 1, "t", arrays).nbytes
        assert nbytes >= 3 * 800  # element buffers dominate
        assert Message(0, 1, "t", (b"abcd", b"efgh")).nbytes >= 8
        # Deeper nesting deliberately stays an approximation: the inner
        # list is measured as a container shell only.
        nested = [[np.zeros(100)]]
        assert Message(0, 1, "t", nested).nbytes < 800

    def test_dict_nbytes_counts_keys_and_values(self):
        # Dicts get the same one-level treatment as lists/tuples: keys
        # and values are both charged, so a header dict of buffers is
        # not measured as a pointer table.
        payload = {b"k" * 16: np.zeros(100, dtype=np.float64), "meta": b"x" * 64}
        nbytes = Message(0, 1, "t", payload).nbytes
        assert nbytes >= 800 + 64 + 16
        # Nested dicts stay shell-measured, like nested lists.
        assert Message(0, 1, "t", {"a": {"b": np.zeros(100)}}).nbytes < 800

    @pytest.mark.parametrize(
        "payload",
        [b"xyz", np.zeros(4, dtype=np.int32), "text", 7, [np.zeros(3), b"ab"],
         {"k": np.zeros(5)}],
        ids=["bytes", "array", "str", "int", "list", "dict"],
    )
    def test_message_size_fixed_at_construction(self, payload):
        msg = Message(0, 1, "t", payload)
        assert msg.nbytes == payload_nbytes(payload)
        if isinstance(payload, list):
            payload.append(np.zeros(100))  # later mutation is not re-charged
            assert msg.nbytes < payload_nbytes(payload)
        assert msg == Message(0, 1, "t", payload)  # size is not compared
        assert "nbytes" not in repr(msg)

    @pytest.mark.parametrize(
        "fault, counter, copies",
        [("drop", "bytes_dropped", 1), ("duplicate", "bytes_delivered", 2),
         ("corrupt", "bytes_delivered", 1)],
    )
    def test_faulty_copies_charged_payload_bytes(self, fault, counter, copies):
        """Dropped, duplicated and corrupted messages are charged the
        payload's bytes: once per drop, once per delivered copy, and the
        corrupted copy (a new, same-sized message) once."""
        net = Network(2, fault_plan=FaultPlan(seed=3, **{fault: 1.0}))
        payloads = [np.zeros(10), b"abcd", np.arange(3, dtype=np.int16)]
        for payload in payloads:
            net.send(0, 1, "t", payload)
        net.deliver()
        want = sum(payload_nbytes(pl) for pl in payloads)
        assert net.stats.bytes_sent == want
        assert getattr(net.stats, counter) == copies * want

    def test_split_counters_on_clean_network(self):
        net = Network(2)
        net.send(0, 1, "t", b"abcd")
        assert net.stats.sent == 1 and net.stats.delivered == 0
        net.deliver()
        assert net.stats.delivered == 1
        assert net.stats.dropped == 0
        assert net.stats.bytes_delivered == net.stats.bytes_sent == 4


class TestQuarantine:
    def test_mark_dead_quarantines_in_flight(self):
        net = Network(3)
        net.send(0, 1, "t", b"to-victim")  # pending, addressed to the victim
        net.send(1, 2, "t", b"from-victim")  # pending, sent by the victim
        net.send(0, 2, "t", b"bystander")
        gone = net.mark_dead(1)
        assert gone == 2
        assert net.stats.quarantined == 2
        assert net.stats.bytes_quarantined == len(b"to-victim") + len(b"from-victim")
        net.deliver()
        assert net.recv(2, 0, "t") == b"bystander"
        assert not net.probe(2, 1, "t")

    def test_mark_dead_purges_delivered_queues(self):
        net = Network(2)
        net.send(0, 1, "t", 1.0)
        net.deliver()  # sits in rank 1's receive queue
        net.mark_dead(1)
        assert net.stats.quarantined == 1
        assert not net.probe(1, 0, "t")

    def test_traffic_to_dead_rank_never_delivers(self):
        net = Network(2)
        net.mark_dead(1)
        net.send(0, 1, "t", 7)
        assert net.deliver() == 0
        assert net.stats.quarantined == 1
        net.mark_alive(1)
        net.send(0, 1, "t", 8)
        net.deliver()
        assert net.recv(1, 0, "t") == 8

    def test_quarantine_events_are_traced(self):
        net = Network(2)
        net.send(0, 1, "t", 1)
        net.mark_dead(1)
        kinds = [ev.kind for ev in net.fault_events]
        assert kinds == ["quarantine"]
