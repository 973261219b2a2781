"""Unit tests for address types and the routing table."""

import pytest

from repro.net.addresses import IPAddress, MACAddress, fresh_mac
from repro.net.routing import RoutingTable


class TestIPAddress:
    def test_parse_and_str_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255"):
            assert str(IPAddress.parse(text)) == text

    def test_parse_idempotent_on_instances(self):
        address = IPAddress.parse("10.0.0.1")
        assert IPAddress.parse(address) is address

    def test_invalid_addresses(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPAddress.parse(bad)

    def test_network_extraction(self):
        address = IPAddress.parse("10.1.2.3")
        assert str(address.network(24)) == "10.1.2.0"
        assert str(address.network(16)) == "10.1.0.0"
        assert str(address.network(32)) == "10.1.2.3"
        assert str(address.network(0)) == "0.0.0.0"

    def test_in_network(self):
        address = IPAddress.parse("10.1.2.3")
        assert address.in_network(IPAddress.parse("10.1.2.0"), 24)
        assert not address.in_network(IPAddress.parse("10.1.3.0"), 24)

    def test_invalid_prefix(self):
        with pytest.raises(ValueError):
            IPAddress.parse("1.2.3.4").network(33)

    def test_hashable_and_ordered(self):
        a = IPAddress.parse("10.0.0.1")
        b = IPAddress.parse("10.0.0.2")
        assert a < b
        assert len({a, b, IPAddress.parse("10.0.0.1")}) == 2


class TestMACAddress:
    def test_parse_and_str(self):
        text = "02:00:00:00:00:2a"
        assert str(MACAddress(0x02000000002A)) == text

    def test_broadcast(self):
        assert MACAddress.broadcast().is_broadcast
        assert not MACAddress(0x020000000001).is_broadcast

    def test_fresh_macs_unique(self):
        assert fresh_mac() != fresh_mac()

    def test_invalid(self):
        with pytest.raises(ValueError):
            MACAddress(1 << 48)


class TestRoutingTable:
    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.add("10.0.0.0", 8, "iface-wide")
        table.add("10.1.0.0", 16, "iface-narrow")
        route = table.lookup("10.1.2.3")
        assert route.interface == "iface-narrow"
        assert table.lookup("10.9.0.1").interface == "iface-wide"

    def test_host_route_overrides_network_route(self):
        """The strIPe deployment trick from section 6.1."""
        table = RoutingTable()
        table.add("10.1.0.0", 24, "ethernet")
        table.add_host_route("10.1.0.2", "stripe")
        assert table.lookup("10.1.0.2").interface == "stripe"
        assert table.lookup("10.1.0.3").interface == "ethernet"

    def test_metric_breaks_ties(self):
        table = RoutingTable()
        table.add("10.0.0.0", 8, "expensive", metric=10)
        table.add("10.0.0.0", 8, "cheap", metric=1)
        assert table.lookup("10.1.1.1").interface == "cheap"

    def test_no_route(self):
        assert RoutingTable().lookup("1.2.3.4") is None

    def test_default_route(self):
        table = RoutingTable()
        table.add("0.0.0.0", 0, "default", next_hop="10.0.0.254")
        route = table.lookup("99.99.99.99")
        assert route.interface == "default"
        assert str(route.next_hop) == "10.0.0.254"

    def test_network_normalized_on_add(self):
        table = RoutingTable()
        route = table.add("10.1.2.3", 24, "x")
        assert str(route.network) == "10.1.2.0"
