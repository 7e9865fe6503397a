"""Ground-truth network graph: nodes, links, and a reachability oracle.

The topology is the physical truth the protocols run on top of.  Links are
binary Up/Down and lossless while Up.  Nothing here notifies the protocol
layers of state flips: routing daemons must discover changes through their
own Hello traffic, exactly like the deployed system would.
"""
from __future__ import annotations

from functools import cached_property
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Iterator, Literal, Sequence

NodeKind = Literal["wmr", "controller", "host"]


class Node:
    """A node and the addresses it holds.

    The first address is a router's or controller's mesh address, or a
    host's only address; a router's access addresses follow.  ``local``
    holds the same addresses as ints, and ``access_networks`` a router's
    access subnets.
    """

    def __init__(
        self,
        id: str,
        kind: NodeKind,
        addresses: Sequence[IPv4Address],
        access_networks: Sequence[IPv4Network] = (),
    ) -> None:
        self.id = id
        self.kind = kind
        self.addresses = tuple(addresses)
        self.local = frozenset(int(addr) for addr in self.addresses)
        self.access_networks = tuple(access_networks)

    @property
    def mesh_address(self) -> IPv4Address:
        if self.kind == "host":
            raise ValueError(f"node {self.id} has no mesh interface")
        return self.addresses[0]


def link_id(a: str, b: str) -> str:
    lo, hi = sorted((a, b))
    return f"{lo}<->{hi}"


class Link:
    def __init__(self, a: str, b: str, capacity_bps: int, delay_us: int, up: bool = True) -> None:
        self.a = a
        self.b = b
        self.capacity_bps = capacity_bps
        self.delay_us = delay_us
        self.up = up
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a!r} twice")
        if capacity_bps <= 0:
            raise ValueError(f"link {self.id}: capacity must be positive")
        if delay_us < 0:
            raise ValueError(f"link {self.id}: delay must be >= 0")

    @cached_property
    def id(self) -> str:
        return link_id(self.a, self.b)

    def other(self, node_id: str) -> str:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise ValueError(f"{node_id} is not an endpoint of {self.id}")


class Topology:
    """Node/link store plus queries the simulator and the oracles share."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self._incident: dict[str, list[Link]] = {}
        self._owners: dict[IPv4Address, Node] = {}
        self._between: dict[tuple[str, str], Link] = {}
        # Called as (link, up) after every applied state change.
        self.on_link_event: Callable[[Link, bool], None] | None = None
        # State changes applied so far.  ``set_link_state`` is the only
        # writer of ``Link.up`` after construction, so a reader that noted
        # this count knows no link moved while it stays the same.
        self.link_events = 0

    def add_node(self, node: Node) -> None:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        self._incident[node.id] = []
        for addr in node.addresses:
            self._owners.setdefault(addr, node)  # the first node added owns it

    def add_link(self, link: Link) -> None:
        for end in (link.a, link.b):
            if end not in self.nodes:
                raise ValueError(f"link {link.id} references unknown node {end!r}")
        if link.id in self.links:
            raise ValueError(f"duplicate link {link.id}")
        self.links[link.id] = link
        self._incident[link.a].append(link)
        self._incident[link.b].append(link)
        self._between[link.a, link.b] = self._between[link.b, link.a] = link

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self._between[a, b]
        except KeyError:
            raise KeyError(f"no link {link_id(a, b)}") from None

    def links_of(self, node_id: str) -> list[Link]:
        return self._incident[node_id]

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Apply a physical state flip.  Setting the current state is a no-op
        for the graph but is still reported, so logs show every applied event.
        """
        link = self.link_between(a, b)
        link.up = up
        self.link_events += 1
        if self.on_link_event is not None:
            self.on_link_event(link, up)

    def up_neighbors(self, node_id: str) -> Iterator[tuple[str, Link]]:
        for link in self._incident[node_id]:
            if link.up:
                yield link.other(node_id), link

    # -- reachability oracle ------------------------------------------------
    # Deliberately protocol-free: plain BFS over currently-Up links.  Tests
    # compare converged protocol state against this, never the reverse.

    def component_of(self, node_id: str) -> set[str]:
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            nxt: list[str] = []
            for current in frontier:
                for neighbor, _ in self.up_neighbors(current):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        nxt.append(neighbor)
            frontier = nxt
        return seen

    def reachable(self, src: str, dst: str) -> bool:
        return dst in self.component_of(src)

    def owner_of(self, addr: IPv4Address) -> Node | None:
        return self._owners.get(addr)
