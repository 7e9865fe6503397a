"""Link-state routing daemon with Hello sensing, flooding, and HNA.

Each routing participant (mesh router or controller host) runs one
:class:`OlsrDaemon`.  Link liveness is inferred purely from Hello arrivals:
a neighbor becomes symmetric after ``hellos_to_up`` consecutive Hellos and
is dropped after ``hello_loss_intervals_to_down`` silent intervals.  Topology
and attached-network (HNA) information is flooded network-wide with per-origin
sequence numbers; there is no relay-set optimization, every node re-floods.

Routes are shortest-path by hop count with a deterministic tie-break: among
equal-cost paths, the one whose first hop has the numerically lowest address
wins.  The same tie-break is reused by the controller's path computation so
reactively installed rules always agree with what each hop would have routed.

The shortest-path tree (:class:`~meshsdn.routing.FirstHopTree`) is searched
in full only when the daemon starts, when a neighbor becomes symmetric or
is lost, and when a symmetric neighbor's address, which ranks it as a first
hop, changes.  Every other change is a remote edge that an advertisement or
its expiry adds or removes, and the tree is repaired edge by edge where that
happens.  Routes are kept per prefix: an index lists the origins offering
each prefix, and a recompute looks again only at the prefixes of origins
whose hop count, first hop or offered prefixes moved.
"""
from __future__ import annotations

from functools import partial
from ipaddress import IPv4Address, IPv4Network
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .engine import Period, SimTime, Simulator, to_us
from .routing import RANK_BITS, RANK_MASK, FirstHopTree

# The controller's path search reads these two from here.
from .routing import by_address, first_hop_tree  # noqa: F401


class OlsrConfig(NamedTuple):
    hello_interval_s: Period = 5.0
    hellos_to_up: int = 3
    hello_loss_intervals_to_down: int = 3
    tc_interval_s: Period = 5.0
    # Fractional jitter applied to both the Hello and flood timers.
    jitter: float = 0.1
    # When False, timers start at phase 0 with no random offset; unit tests
    # rely on this to pin emission instants.
    randomize_phase: bool = True

    def check(self) -> None:
        """Raise ValueError for a value the daemon cannot run with."""
        if self.hellos_to_up < 1 or self.hello_loss_intervals_to_down < 1:
            raise ValueError("hello thresholds must be >= 1")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError("jitter must be in [0, 0.5)")


class HelloMsg(NamedTuple):
    origin: str
    address: IPv4Address


class FloodMsg(NamedTuple):
    """One origin's link-state advertisement, flooded everywhere."""

    origin: str
    seq: int
    addresses: tuple[IPv4Address, ...]
    neighbors: tuple[str, ...]
    hna: tuple[IPv4Network, ...]
    validity_us: SimTime


class NeighborRecord:
    def __init__(
        self, address: IPv4Address, last_hello_at: SimTime, expiry_check: Callable[[], None]
    ) -> None:
        self.address = address
        self.consecutive_hellos = 0
        self.last_hello_at = last_hello_at
        # What each Hello from this neighbour schedules, built once.
        self.expiry_check = expiry_check


def route_key(prefix: IPv4Network) -> int:
    """An int that identifies ``prefix``, cheaper to hash and compare."""
    return int(prefix.network_address) << 6 | prefix.prefixlen


class RouteEntry(NamedTuple):
    """The route to one prefix; the table stores it with its prefix."""

    next_hop: str | None  # None: deliver on a local interface
    hop_count: int
    origin: str


class RoutingTable:
    """Routes by prefix, answering longest-prefix-match lookups.

    ``routes`` holds each route as (prefix, entry) under the prefix's
    :func:`route_key`, and ``entries`` the entries by prefix; both read back
    as read-only.  The table changes only by :meth:`patch`, which writes
    each change into the lookup index as well, so a lookup never answers
    from a stale table.
    """

    def __init__(self, entries: Mapping[IPv4Network, RouteEntry] | None = None) -> None:
        self._routes: dict[int, tuple[IPv4Network, RouteEntry]] = {}
        self._view = MappingProxyType(self._routes)
        # One dict per prefix length, keyed by network address, and the same
        # dicts listed longest first with their masks.
        self._by_length: dict[int, dict[int, RouteEntry]] = {}
        self._index: list[tuple[int, dict[int, RouteEntry]]] = []
        if entries:
            self.patch({route_key(p): (p, e) for p, e in entries.items()}, ())

    @property
    def routes(self) -> Mapping[int, tuple[IPv4Network, RouteEntry]]:
        return self._view

    @property
    def entries(self) -> Mapping[IPv4Network, RouteEntry]:
        return MappingProxyType(dict(self._routes.values()))

    def patch(
        self, changed: Mapping[int, tuple[IPv4Network, RouteEntry]], removed: Iterable[int]
    ) -> None:
        """Drop the routes under the ``removed`` route keys, then write the
        ``changed`` (prefix, entry) pairs under theirs."""
        routes, by_length = self._routes, self._by_length
        relist = False
        for key in removed:
            del routes[key]
            held = by_length[key & 63]
            del held[key >> 6]
            if not held:
                del by_length[key & 63]
                relist = True
        for key, route in changed.items():
            routes[key] = route
            held = by_length.get(key & 63)
            if held is None:
                held = by_length[key & 63] = {}
                relist = True
            held[key >> 6] = route[1]
        if relist:
            self._index = [
                (0xFFFFFFFF ^ (0xFFFFFFFF >> length), by_length[length])
                for length in sorted(by_length, reverse=True)
            ]

    def lookup(self, addr: IPv4Address | int) -> RouteEntry | None:
        """The longest-prefix route for ``addr``, given as an address or as
        its int value; None if no prefix covers it."""
        key = int(addr)
        for mask, routes in self._index:
            entry = routes.get(key & mask)
            if entry is not None:
                return entry
        return None

    def forwarding_map(self) -> dict[IPv4Network, tuple[str | None, int]]:
        return {p: (e.next_hop, e.hop_count) for p, e in self._routes.values()}


class TopologySnapshot(NamedTuple):
    """What a controller sees when it pulls the attached daemon's databases."""

    captured_at: SimTime
    adjacency: dict[str, tuple[str, ...]]
    addresses: dict[str, tuple[IPv4Address, ...]]
    hna: tuple[tuple[str, IPv4Network], ...]  # (origin, prefix)


class OlsrDaemon:
    """Routing process of one node.

    The daemon is transport-agnostic: ``links`` yields the node's routing
    links as ``(neighbor_id, link)`` pairs and ``broadcast(links, msg)`` hands
    the transport one message for the listed links, which delivers it over
    each link that is physically Up.
    """

    def __init__(
        self,
        node_id: str,
        addresses: list[IPv4Address],
        originated_hna: list[IPv4Network],
        cfg: OlsrConfig,
        sim: Simulator,
        links: Callable[[], list[tuple[str, object]]],
        broadcast: Callable[[list[object], object], None],
        log: Callable[[str, dict], None],
    ) -> None:
        self.node_id = node_id
        self.addresses = tuple(addresses)
        self.originated_hna = tuple(originated_hna)
        self.cfg = cfg
        self.sim = sim
        self._links = links
        self._broadcast = broadcast
        self._log = log
        self._hello = HelloMsg(node_id, self.addresses[0])
        self._hello_interval_us = to_us(cfg.hello_interval_s)
        self._tc_interval_us = to_us(cfg.tc_interval_s)
        self._neighbor_hold_us = cfg.hello_loss_intervals_to_down * self._hello_interval_us
        # Entries survive three lost refreshes, mirroring neighbor expiry.
        self._flood_validity_us = 3 * self._tc_interval_us
        self._jitter = cfg.jitter

        self.neighbors: dict[str, NeighborRecord] = {}
        # Each origin's accepted advertisement, and when it expires.
        self.link_state: dict[str, FloodMsg] = {}
        self.expires_at: dict[str, SimTime] = {}
        # Counts every change of some origin's addresses or HNA prefixes
        # (added, changed or removed), and every return of an expired entry
        # before its removal: every change to what hna_entries() lists,
        # except an entry passing its expiry instant.
        self.hna_version = 0
        # Per origin, what each of its accepted advertisements schedules.
        self._entry_expiry: dict[str, Callable[[], None]] = {}
        # Per origin, the (route key, prefix) pairs it offers routes to: each
        # of its advertised addresses as a host route, then each HNA prefix;
        # a neighbour that has advertised nothing offers the address its
        # Hellos carry.  And per route key, the origins offering it.
        self._offers: dict[str, tuple[tuple[int, IPv4Network], ...]] = {}
        self._offered_by: dict[int, dict[str, IPv4Network]] = {}
        # Kept in step with ``neighbors`` and ``link_state`` wherever they
        # change: the symmetric neighbours, and the graph routes run over.
        # That graph maps this node to its symmetric neighbours and every
        # other node to its confirmed remote edges, those both ends
        # advertise; a node without one has no key.
        self._sym_set: set[str] = set()
        self._adj: dict[str, set[str]] = {node_id: self._sym_set}
        # The tree is repaired where an edge between two other nodes comes
        # or goes; ``_tree_stale`` says it awaits a full search instead.
        self._tree = FirstHopTree(self._adj, node_id)
        self._tree_stale = True
        self.routing_table = RoutingTable()
        self.routes_version = 0
        self.on_routes_changed: list[Callable[[], None]] = []
        self._seen_seq: dict[str, int] = {}
        self._own_seq = 0
        # The keyed /32 network of every address this node has heard of.
        self._host_routes: dict[IPv4Address, tuple[int, IPv4Network]] = {}
        # A prefix's route is its own one, if this node originates it, or
        # else the one via the origin offering it with the lowest (hop
        # count, id).
        self._own_routes = {
            route_key(prefix): (prefix, RouteEntry(None, 0, node_id))
            for prefix in self.originated_hna
        }
        # What the next recompute looks at again: the nodes whose place in
        # the tree moved, and the route keys whose offers changed.
        self._moved: set[str] = set()
        self._dirty: set[int] = set(self._own_routes)
        self._rng = sim.node_rng(node_id)

    # -- timers -------------------------------------------------------------

    def start(self) -> None:
        hello_phase = (
            round(self._rng.random() * self._hello_interval_us)
            if self.cfg.randomize_phase
            else 0
        )
        tc_phase = (
            round(self._rng.random() * self._tc_interval_us)
            if self.cfg.randomize_phase
            else 0
        )
        self.sim.schedule(hello_phase, self._hello_tick, kind="hello")
        self.sim.schedule(tc_phase, self._tc_tick, kind="tc")
        self._recompute()

    def _jittered(self, interval_us: SimTime) -> SimTime:
        jitter = self._jitter
        if jitter == 0.0:
            return interval_us
        factor = 1.0 + self._rng.uniform(-jitter, jitter)
        return round(interval_us * factor)

    def _hello_tick(self) -> None:
        self._broadcast([link for _, link in self._links()], self._hello)
        self.sim.schedule(self._jittered(self._hello_interval_us), self._hello_tick, kind="hello")

    def _tc_tick(self) -> None:
        self._originate_flood()
        self.sim.schedule(self._jittered(self._tc_interval_us), self._tc_tick, kind="tc")

    # -- neighbor sensing ---------------------------------------------------

    def sym_neighbors(self) -> list[str]:
        return sorted(self._sym_set)

    def handle_hello(self, msg: HelloMsg) -> None:
        origin = msg.origin
        now = self.sim.now()
        rec = self.neighbors.get(origin)
        if rec is None:
            rec = self.neighbors[origin] = NeighborRecord(
                msg.address, now, partial(self._neighbor_expiry_check, origin)
            )
            if origin not in self.link_state:
                self._offer(origin, (self._host_route(msg.address),))
        rec.consecutive_hellos += 1
        rec.last_hello_at = now
        self.sim.schedule(self._neighbor_hold_us, rec.expiry_check, kind="neighbor-expiry")
        if origin not in self._sym_set and rec.consecutive_hellos >= self.cfg.hellos_to_up:
            self._sym_set.add(origin)
            self._tree_stale = True
            self._on_new_adjacency(origin)

    def _neighbor_expiry_check(self, origin: str) -> None:
        rec = self.neighbors.get(origin)
        if rec is None:
            return
        if self.sim.now() - rec.last_hello_at >= self._neighbor_hold_us:
            del self.neighbors[origin]
            if origin not in self.link_state:
                self._offer(origin, ())
            if origin in self._sym_set:
                self._sym_set.remove(origin)
                self._tree_stale = True
                self._originate_flood()
                self._recompute()

    def _on_new_adjacency(self, neighbor: str) -> None:
        # Sync the stored database over the new link so a healed partition
        # learns the far side immediately instead of waiting out a full
        # refresh period, then advertise the new adjacency everywhere.
        link = self._link_to(neighbor)
        if link is not None:
            for origin in sorted(self.link_state):
                self._broadcast([link], self.link_state[origin])
        self._originate_flood()
        self._recompute()

    def _link_to(self, neighbor: str) -> object | None:
        for nbr, link in self._links():
            if nbr == neighbor:
                return link
        return None

    # -- flooding -----------------------------------------------------------

    def _originate_flood(self) -> None:
        self._own_seq += 1
        msg = FloodMsg(
            origin=self.node_id,
            seq=self._own_seq,
            addresses=self.addresses,
            neighbors=tuple(sorted(self._sym_set)),
            hna=self.originated_hna,
            validity_us=self._flood_validity_us,
        )
        self._relay(msg, exclude_link=None)

    def handle_flood(self, msg: FloodMsg, arrival_link: object) -> None:
        origin = msg.origin
        if origin == self.node_id:
            return
        if msg.seq <= self._seen_seq.get(origin, 0):
            return
        self._seen_seq[origin] = msg.seq
        now = self.sim.now()
        old = self.link_state.get(origin)
        if old is not None and old.addresses == msg.addresses and old.hna == msg.hna:
            same_prefixes = True
            changed = old.neighbors != msg.neighbors
            if self.expires_at[origin] <= now:
                self.hna_version += 1  # back in hna_entries() before its removal
        else:
            self._offer(
                origin,
                tuple(self._host_route(addr) for addr in msg.addresses)
                + tuple((route_key(prefix), prefix) for prefix in msg.hna),
            )
            same_prefixes = False
            changed = True
        validity = msg.validity_us
        self.expires_at[origin] = now + validity
        if changed:
            self._install(origin, old, msg, same_prefixes)
        else:
            self.link_state[origin] = msg  # the same edges, addresses and prefixes
        expiry_check = self._entry_expiry.get(origin)
        if expiry_check is None:
            expiry_check = self._entry_expiry[origin] = partial(self._entry_expiry_check, origin)
        self.sim.schedule(validity, expiry_check, kind="ls-expiry")
        self._relay(msg, exclude_link=arrival_link)
        if changed:
            self._recompute()

    def _entry_expiry_check(self, origin: str) -> None:
        expires_at = self.expires_at.get(origin)
        if expires_at is not None and self.sim.now() >= expires_at:
            del self.expires_at[origin]
            rec = self.neighbors.get(origin)
            self._offer(origin, (self._host_route(rec.address),) if rec is not None else ())
            self._install(origin, self.link_state[origin], None)
            self._recompute()

    def _install(
        self,
        origin: str,
        old: FloodMsg | None,
        new: FloodMsg | None,
        same_prefixes: bool = False,
    ) -> None:
        """Replace ``origin``'s entry ``old`` by ``new`` (None: none) and bring
        the graph and the tree up to date.  ``same_prefixes`` says that
        ``new`` has ``old``'s addresses and HNA prefixes.

        Each remote edge that comes or goes repairs the tree at once, unless
        the tree already awaits a full search.  A symmetric neighbour whose
        address moves changes its rank as a first hop, which leaves the tree
        to a full search in the next recompute.
        """
        ranked = not same_prefixes and origin in self._sym_set
        if ranked:
            address = self._addr_of(origin)
        if new is None:
            del self.link_state[origin]
        else:
            self.link_state[origin] = new
        if not same_prefixes:
            self.hna_version += 1
            if ranked and self._addr_of(origin) != address:
                self._tree_stale = True
        if old is not None and new is not None and old.neighbors == new.neighbors:
            return
        before = set(old.neighbors) if old is not None else set()
        after = set(new.neighbors) if new is not None else set()
        me, adj, link_state = self.node_id, self._adj, self.link_state
        tree = None if self._tree_stale else self._tree
        moved = self._moved
        for other in before - after:
            held = adj.get(origin)
            if other == me or held is None or other not in held:
                continue
            held.discard(other)
            if not held:
                del adj[origin]
            if other != origin:
                peer = adj[other]
                peer.discard(origin)
                if not peer:
                    del adj[other]
            if tree is not None:
                moved |= tree.remove_edge(origin, other)
        for other in after - before:
            peer_entry = link_state.get(other)
            if other == me or peer_entry is None or origin not in peer_entry.neighbors:
                continue
            adj.setdefault(origin, set()).add(other)
            adj.setdefault(other, set()).add(origin)
            if tree is not None:
                moved |= tree.add_edge(origin, other)

    def _relay(self, msg: FloodMsg, exclude_link: object | None) -> None:
        sym = self._sym_set
        links = [
            link for nbr, link in self._links() if nbr in sym and link is not exclude_link
        ]
        if links:
            self._broadcast(links, msg)

    # -- route computation --------------------------------------------------

    def graph(self) -> dict[str, set[str]]:
        """Adjacency as this node currently believes it, self edges included.

        Own edges come from local Hello sensing; remote edges require both
        endpoints to advertise each other, so a half-expired link is unusable.
        """
        me = self.node_id
        adj = {node: set(peers) for node, peers in self._adj.items()}
        for nbr in self._sym_set:
            held = adj.get(nbr)
            if held is None:
                adj[nbr] = {me}
            else:
                held.add(me)
        return adj

    def _addr_of(self, node: str) -> IPv4Address | None:
        if node == self.node_id:
            return self.addresses[0]
        entry = self.link_state.get(node)
        if entry is not None and entry.addresses:
            return entry.addresses[0]
        rec = self.neighbors.get(node)
        if rec is not None:
            return rec.address
        return None

    def _host_route(self, addr: IPv4Address) -> tuple[int, IPv4Network]:
        keyed = self._host_routes.get(addr)
        if keyed is None:
            prefix = IPv4Network((int(addr), 32))
            keyed = self._host_routes[addr] = (route_key(prefix), prefix)
        return keyed

    def _offer(self, origin: str, offer: tuple[tuple[int, IPv4Network], ...]) -> None:
        """Make ``offer`` the (route key, prefix) pairs ``origin`` offers,
        and mark the keys it offered before and offers now."""
        index, dirty = self._offered_by, self._dirty
        for key, _ in self._offers.pop(origin, ()):
            held = index.get(key)
            if held:
                held.pop(origin, None)
                if not held:
                    del index[key]
            dirty.add(key)
        if offer:
            self._offers[origin] = offer
            for key, prefix in offer:
                index.setdefault(key, {})[origin] = prefix
                dirty.add(key)

    def _recompute(self) -> None:
        if self._tree_stale:
            self._tree_stale = False
            self._moved |= self._tree.rebuild(self._addr_of)
        moved, dirty = self._moved, self._dirty
        if moved:
            offers = self._offers
            for node in moved:
                offer = offers.get(node)
                if offer is not None:
                    for key, _ in offer:
                        dirty.add(key)
            moved.clear()
        if not dirty:
            return  # the table and its lookup index stay as they are
        self._dirty = set()
        table, own, offered_by = self.routing_table, self._own_routes, self._offered_by
        routes, place, hops = table.routes, self._tree.key, self._tree.hops
        changed: dict[int, tuple[IPv4Network, RouteEntry]] = {}
        gone: list[int] = []
        # Only a change of next hop or hop count, or a route gained or lost,
        # counts as a route change.
        route_change = False
        for key in sorted(dirty):
            old = routes.get(key)
            new = own.get(key)
            if new is None:
                best = best_place = None
                for origin in offered_by.get(key, ()):
                    held = place.get(origin)
                    if held is not None and (
                        best is None or (held >> RANK_BITS, origin) < (best_place >> RANK_BITS, best)
                    ):
                        best, best_place = origin, held
                if best is None:
                    if old is not None:
                        gone.append(key)
                        route_change = True
                    continue
                next_hop, hop_count = hops[best_place & RANK_MASK], best_place >> RANK_BITS
                if old is not None and old[1] == (next_hop, hop_count, best):
                    continue
                new = (offered_by[key][best], RouteEntry(next_hop, hop_count, best))
            elif old is not None:
                continue  # an own prefix's route never changes
            changed[key] = new
            if old is None or old[1][:2] != new[1][:2]:
                route_change = True
        if changed or gone:
            table.patch(changed, gone)
        if not route_change:
            return
        self.routes_version += 1
        self._log(
            "OlsrRouteChange",
            {"node": self.node_id, "entries": len(routes), "version": self.routes_version},
        )
        for callback in list(self.on_routes_changed):
            callback()

    # -- controller-facing view --------------------------------------------

    def hna_entries(self) -> list[tuple[str, IPv4Network]]:
        """Live (origin, prefix) pairs, own announcements included."""
        now = self.sim.now()
        out = [(self.node_id, prefix) for prefix in self.originated_hna]
        for origin in sorted(self.link_state):
            if self.expires_at[origin] > now:
                out.extend((origin, prefix) for prefix in self.link_state[origin].hna)
        return out

    def snapshot(self) -> TopologySnapshot:
        adj = self.graph()
        addresses: dict[str, tuple[IPv4Address, ...]] = {self.node_id: self.addresses}
        for origin in sorted(self.link_state):
            addresses[origin] = self.link_state[origin].addresses
        for nbr, rec in sorted(self.neighbors.items()):
            addresses.setdefault(nbr, (rec.address,))
        return TopologySnapshot(
            captured_at=self.sim.now(),
            adjacency={n: tuple(sorted(vs)) for n, vs in sorted(adj.items())},
            addresses=addresses,
            hna=tuple(self.hna_entries()),
        )
