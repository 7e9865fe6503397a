"""Link-state routing daemon: Hello sensing, flooding and the topology
database (RFC 3626 §8 and §9).

Each routing participant (mesh router or controller host) runs one
:class:`OlsrDaemon`.  Link liveness is inferred purely from Hello arrivals:
a neighbor becomes symmetric after ``hellos_to_up`` consecutive Hellos and
is dropped after ``hello_loss_intervals_to_down`` silent intervals.  Topology
and attached-network (HNA) information is flooded network-wide with per-origin
sequence numbers; there is no relay-set optimization, every node re-floods.

The daemon keeps the graph routes run over and tells its
:class:`~meshsdn.routing.PrefixRoutes` each change: a full tree search when
a neighbor becomes symmetric or is lost, or a symmetric neighbor's address,
which ranks it as a first hop, changes; a repair for each remote edge an
advertisement or its expiry adds or removes; and the prefixes each origin
offers.  Route computation itself (§10) lives in :mod:`meshsdn.routing`;
the daemon logs each change of the table and runs its route-change
callback.
"""
from __future__ import annotations

from functools import partial
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, NamedTuple, Sequence

from .engine import Period, SimTime, Simulator, to_us
from .routing import PrefixRoutes, RoutingTable


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


class TopologySnapshot(NamedTuple):
    """What a controller sees when it pulls the attached daemon's databases."""

    captured_at: SimTime
    adjacency: dict[str, tuple[str, ...]]
    addresses: dict[str, tuple[IPv4Address, ...]]
    hna: tuple[tuple[str, IPv4Network], ...]  # (origin, prefix)


class OlsrDaemon:
    """Routing process of one node.

    The daemon is transport-agnostic: ``links`` lists the node's routing
    links as ``(neighbor_id, link)`` pairs, and two callbacks each hand the
    transport one message for the listed links, which delivers it over
    each link that is physically Up.  ``broadcast(links, msg)`` carries the
    Hellos and the database sync after a new adjacency.  ``flood(links,
    msg)`` carries every flood, originated here or relayed, over every
    symmetric link, and applies the one flood rule (RFC 3626 §3.4.1): a
    copy goes out only if the far end's ``seen_seq`` is below the flood's
    sequence number, since the far end would drop it on arrival otherwise.
    That rule alone leaves out the copy back over the link a relayed flood
    arrived on, and it leaves out no copy of an originated flood, whose
    number is fresh.  The daemon reads ``links`` from :meth:`start` on, so
    they must not change once it has started.
    """

    def __init__(
        self,
        node_id: str,
        addresses: list[IPv4Address],
        originated_hna: list[IPv4Network],
        cfg: OlsrConfig,
        sim: Simulator,
        links: Sequence[tuple[str, object]],
        broadcast: Callable[[Sequence[object], object], None],
        flood: Callable[[Sequence[object], FloodMsg], None],
        log: Callable[[str, dict], None],
    ) -> None:
        self.node_id = node_id
        self.addresses = tuple(addresses)
        self.originated_hna = tuple(originated_hna)
        self.cfg = cfg
        self.sim = sim
        self._links = links
        self._broadcast = broadcast
        self._flood = flood
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
        # Kept in step with ``neighbors`` and ``link_state`` wherever they
        # change: the symmetric neighbours, and the graph routes run over.
        # That graph maps this node to its symmetric neighbours and every
        # other node to its confirmed remote edges, those both ends
        # advertise; a node without one has no key.
        self._sym_set: set[str] = set()
        self._adj: dict[str, set[str]] = {node_id: self._sym_set}
        # Rebuilt wherever ``_sym_set`` changes: the links to the symmetric
        # neighbours in ``links`` order, over which every flood goes.
        self._sym_links: tuple[object, ...] = ()
        self._hello_links: tuple[object, ...] = ()  # every link, read at start
        self._routes = PrefixRoutes(self._adj, node_id, self.originated_hna)
        self.routing_table: RoutingTable = self._routes.table
        self.routes_version = 0
        # Run after each logged change of the table, if set.
        self.on_routes_changed: Callable[[], None] | None = None
        # The highest sequence number accepted from each origin, and this
        # node's own last one: a flood is accepted only with a higher one.
        # It only grows while the node is up, so ``flood`` may skip a copy
        # whose far end's map already reaches its number.
        self.seen_seq: dict[str, int] = {node_id: 0}
        self._rng = sim.node_rng(node_id)

    # -- timers -------------------------------------------------------------

    def start(self) -> None:
        hello_phase = tc_phase = 0
        if self.cfg.randomize_phase:
            hello_phase = round(self._rng.random() * self._hello_interval_us)
            tc_phase = round(self._rng.random() * self._tc_interval_us)
        self._hello_links = tuple(link for _, link in self._links)
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
        self._broadcast(self._hello_links, self._hello)
        self.sim.schedule(self._jittered(self._hello_interval_us), self._hello_tick, kind="hello")

    def _tc_tick(self) -> None:
        self._originate_flood()
        self.sim.schedule(self._jittered(self._tc_interval_us), self._tc_tick, kind="tc")

    # -- neighbor sensing ---------------------------------------------------

    def handle_hello(self, msg: HelloMsg) -> None:
        origin = msg.origin
        now = self.sim.now()
        rec = self.neighbors.get(origin)
        if rec is None:
            rec = self.neighbors[origin] = NeighborRecord(
                msg.address, now, partial(self._neighbor_expiry_check, origin)
            )
            if origin not in self.link_state:  # until it advertises, its Hello address
                self._routes.offer(origin, (msg.address,))
        rec.consecutive_hellos += 1
        rec.last_hello_at = now
        self.sim.schedule(self._neighbor_hold_us, rec.expiry_check, kind="neighbor-expiry")
        if origin not in self._sym_set and rec.consecutive_hellos >= self.cfg.hellos_to_up:
            self._sym_set.add(origin)
            self._rebuild_sym_links()
            self._routes.rebuild(self._addr_of)
            self._on_new_adjacency(origin)

    def _neighbor_expiry_check(self, origin: str) -> None:
        rec = self.neighbors.get(origin)
        if rec is None:
            return
        if self.sim.now() - rec.last_hello_at >= self._neighbor_hold_us:
            del self.neighbors[origin]
            if origin not in self.link_state:
                self._routes.offer(origin, ())
            if origin in self._sym_set:
                self._sym_set.remove(origin)
                self._rebuild_sym_links()
                self._routes.rebuild(self._addr_of)
                self._originate_flood()
                self._recompute()

    def _on_new_adjacency(self, neighbor: str) -> None:
        # Sync the stored database over the new link so a healed partition
        # learns the far side immediately instead of waiting out a full
        # refresh period, then advertise the new adjacency everywhere.
        link = next((link for nbr, link in self._links if nbr == neighbor), None)
        if link is not None:
            for origin in sorted(self.link_state):
                self._broadcast([link], self.link_state[origin])
        self._originate_flood()
        self._recompute()

    # -- flooding -----------------------------------------------------------

    def _originate_flood(self) -> None:
        seq = self.seen_seq[self.node_id] + 1
        self.seen_seq[self.node_id] = seq
        msg = FloodMsg(
            origin=self.node_id,
            seq=seq,
            addresses=self.addresses,
            neighbors=tuple(sorted(self._sym_set)),
            hna=self.originated_hna,
            validity_us=self._flood_validity_us,
        )
        self._flood(self._sym_links, msg)

    def handle_flood(self, msg: FloodMsg, arrival_link: object) -> None:
        """Accept ``msg`` if its number is new and relay it over every
        symmetric link.  ``arrival_link`` is unused: the flood rule already
        leaves out the copy back over it.  The parameter stays only because
        ``bench/tracing.py`` wraps this method with a three-argument hook."""
        origin = msg.origin
        if msg.seq <= self.seen_seq.get(origin, 0):
            return  # a copy already seen, or this node's own flood
        self.seen_seq[origin] = msg.seq
        now = self.sim.now()
        old = self.link_state.get(origin)
        if old is not None and old.addresses == msg.addresses and old.hna == msg.hna:
            same_prefixes = True
            changed = old.neighbors != msg.neighbors
            if self.expires_at[origin] <= now:
                self.hna_version += 1  # back in hna_entries() before its removal
        else:
            self._routes.offer(origin, msg.addresses, msg.hna)
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
        self._flood(self._sym_links, msg)
        if changed:
            self._recompute()

    def _entry_expiry_check(self, origin: str) -> None:
        expires_at = self.expires_at.get(origin)
        if expires_at is not None and self.sim.now() >= expires_at:
            del self.expires_at[origin]
            rec = self.neighbors.get(origin)
            self._routes.offer(origin, (rec.address,) if rec is not None else ())
            self._install(origin, self.link_state[origin], None)
            self._recompute()

    def _install(
        self, origin: str, old: FloodMsg | None, new: FloodMsg | None, same_prefixes: bool = False
    ) -> None:
        """Replace ``origin``'s entry ``old`` by ``new`` (None: none) and bring
        the graph and the routes up to date.  ``same_prefixes`` says that
        ``new`` has ``old``'s addresses and HNA prefixes.

        A symmetric neighbour whose address moves changes its rank as a
        first hop, which takes a full search of the tree; each remote edge
        that comes or goes then repairs it.  The edges are walked in node id
        order, so the repair work does not follow the string hash seed.
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
                self._routes.rebuild(self._addr_of)
        if old is not None and new is not None and old.neighbors == new.neighbors:
            return
        before = set(old.neighbors) if old is not None else set()
        after = set(new.neighbors) if new is not None else set()
        me, adj, link_state, routes = self.node_id, self._adj, self.link_state, self._routes
        for other in sorted(before - after):
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
            routes.remove_edge(origin, other)
        for other in sorted(after - before):
            peer_entry = link_state.get(other)
            if other == me or peer_entry is None or origin not in peer_entry.neighbors:
                continue
            adj.setdefault(origin, set()).add(other)
            adj.setdefault(other, set()).add(origin)
            routes.add_edge(origin, other)

    def _rebuild_sym_links(self) -> None:
        sym = self._sym_set
        self._sym_links = tuple(link for nbr, link in self._links if nbr in sym)

    # -- the graph and the routes over it -----------------------------------

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

    def _recompute(self) -> None:
        if not self._routes.update():
            return  # the table and its lookup index stay as they are
        self.routes_version += 1
        entries = len(self.routing_table.routes)
        self._log(
            "OlsrRouteChange",
            {"node": self.node_id, "entries": entries, "version": self.routes_version},
        )
        if self.on_routes_changed is not None:
            self.on_routes_changed()

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
