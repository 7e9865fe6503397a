"""Graph store invariants and the BFS reachability oracle."""
from ipaddress import IPv4Address, IPv4Network

import pytest

from meshsdn.topology import Link, Node, Topology, link_id


def mesh_node(node_id: str, addr: str) -> Node:
    return Node(node_id, "wmr", [IPv4Address(addr)])


def chain(n: int) -> Topology:
    topo = Topology()
    for i in range(1, n + 1):
        topo.add_node(mesh_node(f"n{i}", f"10.0.0.{i}"))
    for i in range(1, n):
        topo.add_link(Link(f"n{i}", f"n{i + 1}", capacity_bps=10_000_000, delay_us=2000))
    return topo


def test_link_id_is_order_independent():
    assert link_id("b", "a") == link_id("a", "b") == "a<->b"


def test_link_validation():
    with pytest.raises(ValueError):
        Link("a", "a", capacity_bps=1, delay_us=0)
    with pytest.raises(ValueError):
        Link("a", "b", capacity_bps=0, delay_us=0)
    with pytest.raises(ValueError):
        Link("a", "b", capacity_bps=1, delay_us=-1)


def test_link_other_endpoint():
    link = Link("a", "b", capacity_bps=1, delay_us=0)
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(ValueError):
        link.other("c")


def test_duplicate_nodes_and_links_rejected():
    topo = chain(2)
    with pytest.raises(ValueError):
        topo.add_node(mesh_node("n1", "10.0.0.9"))
    with pytest.raises(ValueError):
        topo.add_link(Link("n2", "n1", capacity_bps=1, delay_us=0))
    with pytest.raises(ValueError):
        topo.add_link(Link("n1", "ghost", capacity_bps=1, delay_us=0))


def test_mesh_address_and_owns():
    access = IPv4Network("192.168.1.0/24")
    node = Node("n1", "wmr", [IPv4Address("10.0.0.1"), IPv4Address("192.168.1.1")], [access])
    assert node.mesh_address == IPv4Address("10.0.0.1")
    # A node owns exactly the addresses it holds, and ``local`` holds them as ints.
    assert node.local == {int(IPv4Address("10.0.0.1")), int(IPv4Address("192.168.1.1"))}
    assert node.access_networks == (access,)
    host = Node("h1", "host", [IPv4Address("192.168.1.10")])
    assert host.local == {int(IPv4Address("192.168.1.10"))} and host.access_networks == ()
    with pytest.raises(ValueError):
        host.mesh_address


def test_component_follows_link_state():
    # Oracle check by hand enumeration on a 5-chain cut in the middle.
    topo = chain(5)
    assert topo.component_of("n1") == {"n1", "n2", "n3", "n4", "n5"}
    topo.set_link_state("n2", "n3", False)
    assert topo.component_of("n1") == {"n1", "n2"}
    assert topo.component_of("n5") == {"n3", "n4", "n5"}
    assert not topo.reachable("n2", "n3")
    assert topo.reachable("n4", "n3")
    topo.set_link_state("n2", "n3", True)
    assert topo.reachable("n1", "n5")


def test_link_event_callback_reports_every_applied_change():
    topo = chain(3)
    seen = []
    topo.on_link_event = lambda link, up: seen.append((link.id, up))
    topo.set_link_state("n1", "n2", False)
    topo.set_link_state("n1", "n2", False)  # redundant but still reported
    topo.set_link_state("n1", "n2", True)
    assert seen == [("n1<->n2", False), ("n1<->n2", False), ("n1<->n2", True)]


def test_up_neighbors_skips_down_links():
    topo = chain(3)
    topo.set_link_state("n2", "n3", False)
    assert [n for n, _ in topo.up_neighbors("n2")] == ["n1"]


def test_owner_of():
    topo = chain(2)
    owner = topo.owner_of(IPv4Address("10.0.0.2"))
    assert owner is not None and owner.id == "n2"
    assert topo.owner_of(IPv4Address("10.0.9.9")) is None


def test_owner_of_returns_the_first_node_added():
    topo = chain(2)
    topo.add_node(mesh_node("n9", "10.0.0.2"))  # claims n2's address again
    assert topo.owner_of(IPv4Address("10.0.0.2")).id == "n2"
    assert topo.owner_of(IPv4Address("10.0.0.1")).id == "n1"
    assert topo.owner_of(IPv4Address("10.0.0.3")) is None


def test_link_between_finds_either_order_and_rejects_missing_pairs():
    topo = chain(3)
    link = topo.link_between("n1", "n2")
    assert topo.link_between("n2", "n1") is link and link.id == "n1<->n2"
    for a, b in (("n1", "n3"), ("n3", "n1"), ("n1", "ghost"), ("n1", "n1")):
        with pytest.raises(KeyError, match=f"no link {link_id(a, b)}"):
            topo.link_between(a, b)
