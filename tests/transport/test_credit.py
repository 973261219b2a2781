"""Unit tests for FCVC credit flow control."""

import pytest

from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.transport.credit import CreditPacket, CreditReceiver, CreditSender
from repro.transport.health import SenderHealthMonitor
from repro.transport.socket_striping import udp_ports


class TestCreditSender:
    def test_initial_credit_spendable(self):
        sender = CreditSender(2, initial_credit=3)
        for _ in range(3):
            assert sender.can_send(0)
            sender.on_send(0)
        assert not sender.can_send(0)
        assert sender.can_send(1)

    def test_send_without_credit_rejected(self):
        sender = CreditSender(1, initial_credit=0)
        with pytest.raises(RuntimeError):
            sender.on_send(0)

    def test_credit_advertisement_extends_limit(self):
        sender = CreditSender(1, initial_credit=1)
        sender.on_send(0)
        assert not sender.can_send(0)
        sender.on_credit(0, limit=5)
        for _ in range(4):
            assert sender.can_send(0)
            sender.on_send(0)
        assert not sender.can_send(0)

    def test_stale_advertisement_ignored(self):
        sender = CreditSender(1, initial_credit=10)
        sender.on_credit(0, limit=3)  # lower than current: keep max
        assert sender.limits[0] == 10

    def test_regressing_limit_never_shrinks_window(self):
        """A reordered CreditPacket overtaken by a newer piggybacked
        credit must not claw back already-granted sending rights."""
        sender = CreditSender(1, initial_credit=2)
        sender.on_credit(0, limit=8)
        for _ in range(5):
            sender.on_send(0)
        sender.on_credit(0, limit=4)  # stale: below what we already used
        assert sender.limits[0] == 8
        assert sender.can_send(0)  # 5 < 8: still allowed to send
        assert sender.stale_credits == 1

    def test_duplicate_advertisement_counted_not_applied(self):
        sender = CreditSender(1, initial_credit=2)
        sender.on_credit(0, limit=6)
        sender.on_credit(0, limit=6)  # keepalive re-advertisement
        assert sender.limits[0] == 6
        assert sender.stale_credits == 1

    def test_stale_credit_never_fires_unblock(self):
        """A stale advertisement cannot unblock a sender: limits did not
        move, so firing the pump would be a spurious wakeup at best and
        mask a real deadlock at worst."""
        fired = []
        sender = CreditSender(1, initial_credit=1)
        sender.on_unblocked = lambda: fired.append(1)
        sender.on_send(0)  # blocked at limit 1
        sender.on_credit(0, limit=1)
        sender.on_credit(0, limit=0)
        assert fired == []
        assert not sender.can_send(0)
        assert sender.stale_credits == 2
        sender.on_credit(0, limit=2)  # a real advertisement
        assert fired == [1]

    def test_unblock_callback(self):
        fired = []
        sender = CreditSender(1, initial_credit=1)
        sender.on_unblocked = lambda: fired.append(1)
        sender.on_send(0)
        sender.on_credit(0, limit=2)
        assert fired == [1]

    def test_no_callback_when_not_blocked(self):
        fired = []
        sender = CreditSender(1, initial_credit=5)
        sender.on_unblocked = lambda: fired.append(1)
        sender.on_credit(0, limit=9)
        assert fired == []

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditSender(0, 1)
        with pytest.raises(ValueError):
            CreditSender(1, -1)


class TestStallEpisodes:
    """``stalls`` counts blocked episodes, not the polls that see one."""

    def test_repeated_polls_count_once_per_episode(self):
        sender = CreditSender(2, initial_credit=1)
        sender.on_send(0)
        for _ in range(5):
            assert not sender.can_send(0)
        assert sender.stalls == 1
        sender.on_credit(0, limit=1)  # stale: the episode goes on
        assert not sender.can_send(0)
        assert sender.stalls == 1
        sender.on_credit(0, limit=2)
        sender.on_send(0)
        assert not sender.can_send(0)
        assert sender.stalls == 2

    def test_exhausted_but_unpolled_is_no_stall(self):
        sender = CreditSender(1, initial_credit=1)
        sender.on_send(0)
        assert sender.sent[0] == sender.limits[0]
        sender.on_credit(0, limit=2)
        assert sender.stalls == 0

    def test_starved_port_polled_and_health_checked(self, sim):
        """Pumps polling a starved UDP port and the stall watch probing
        it all see one episode."""
        stack = Stack(sim, "S")
        peer = Stack(sim, "R")
        a = EthernetInterface(sim, "eth0", "10.0.1.1")
        b = EthernetInterface(sim, "eth0", "10.0.1.2")
        stack.add_interface(a)
        peer.add_interface(b)
        Link(sim, a, b, bandwidth_bps=10e6, prop_delay=0.0005,
             queue_limit=50)
        stack.routing.add("10.0.1.0", 24, a)
        credit = CreditSender(1, initial_credit=1)
        [port] = udp_ports(stack, [("10.0.1.2", 5000)], credit=credit)
        credit.on_send(0)
        for _ in range(10):
            assert not port.can_accept()
        monitor = SenderHealthMonitor(sim)
        monitor.bind([port], lambda index: None, backlog_fn=lambda: 1)
        sim.run(until=0.1)
        assert credit.stalls == 1


class TestCreditReceiver:
    def test_advertises_consumed_plus_buffer(self):
        sent = []
        receiver = CreditReceiver(
            2, buffer_packets=8, send_credit=lambda c, l: sent.append((c, l))
        )
        receiver.on_consumed(0)
        assert sent == [(0, 9)]

    def test_piggyback_limit(self):
        receiver = CreditReceiver(1, buffer_packets=16)
        for _ in range(5):
            receiver.consumed[0] += 1
        assert receiver.piggyback_limit(0) == 21

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditReceiver(1, buffer_packets=0)


class TestInvariant:
    def test_sender_never_exceeds_receiver_buffer(self):
        """The FCVC safety property: in-flight <= buffer size always."""
        buffer_size = 4
        sender = CreditSender(1, initial_credit=buffer_size)
        receiver = CreditReceiver(
            1, buffer_packets=buffer_size,
            send_credit=lambda c, l: sender.on_credit(c, l),
        )
        in_buffer = 0
        max_in_buffer = 0
        consumed_total = 0
        sent_total = 0
        import random

        rng = random.Random(1)
        for _ in range(2000):
            if sender.can_send(0) and rng.random() < 0.7:
                sender.on_send(0)
                sent_total += 1
                in_buffer += 1
            elif in_buffer and rng.random() < 0.5:
                in_buffer -= 1
                consumed_total += 1
                receiver.on_consumed(0)
            max_in_buffer = max(max_in_buffer, in_buffer)
        assert max_in_buffer <= buffer_size
        assert sent_total - consumed_total <= buffer_size


class TestCreditPacket:
    def test_fields(self):
        packet = CreditPacket(channel=1, limit=42)
        assert packet.codepoint == "credit"
        assert "42" in repr(packet)
