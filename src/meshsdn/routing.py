"""Route computation (RFC 3626 §10): the first-hop tree, the route to each
prefix, and the routing table.  None of it holds daemon state; the daemon
in :mod:`meshsdn.olsr` keeps the graph, says what changed in it, and logs
each change of the table.

A router routes each destination through its first hop on a shortest path
by hop count, the first hop that ranks first :func:`by_address` among equal
costs.  The controller's paths (:func:`first_hop_tree`, a full search) tie
the same way, so the rules it installs agree with each hop's own routes.
:class:`FirstHopTree` repairs a tree as single edges come and go, after
Ramalingam and Reps (J. Algorithms 1996) and Narváez, Siu and Tzeng
(IEEE/ACM ToN 2000) with every edge one hop.  :class:`PrefixRoutes` chooses
each prefix's route over such a tree into a :class:`RoutingTable`.  A
prefix is its :func:`route_key` throughout; :func:`route_prefix` rebuilds
the network only where a rule needs one.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from ipaddress import IPv4Address, IPv4Network
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple


def by_address(
    addr_of: Callable[[str], IPv4Address | None],
) -> Callable[[str], tuple[int, str]]:
    """Sort key that ranks nodes by address, lowest first, then by node id;
    a node without an address ranks after every node with one."""

    def key(v: str) -> tuple[int, str]:
        addr = addr_of(v)
        return (int(addr) if addr is not None else 1 << 40, v)

    return key


def first_hop_tree(
    adjacency: Mapping[str, Iterable[str]],
    source: str,
    addr_of: Callable[[str], IPv4Address | None],
) -> tuple[dict[str, int], dict[str, str]]:
    """Hop counts and first hops from ``source`` over an undirected graph.

    Among equal-cost paths the returned first hop is the one that ranks first
    :func:`by_address`, which makes the result unique and independent of
    adjacency iteration order.  The hop counts are listed in (hop count,
    node id) order, ``source`` first.
    """
    # Every first hop is a neighbor of the source, so only those need a rank:
    # their position in (address, node id) order, best first.
    hops = sorted((v for v in adjacency.get(source, ()) if v != source), key=by_address(addr_of))
    dist: dict[str, int] = {source: 0}
    first: dict[str, str] = {}
    # The rank of each reached node's first hop, an index into ``hops``.
    via: dict[str, int] = {v: rank for rank, v in enumerate(hops)}
    layer = sorted(via)
    depth = 1
    while layer:
        for v in layer:
            dist[v] = depth
            first[v] = hops[via[v]]
        candidates: dict[str, int] = {}
        for u in layer:
            rank = via[u]
            for v in adjacency.get(u, ()):
                if v in dist:
                    continue
                held = candidates.get(v)
                if held is None or rank < held:
                    candidates[v] = rank
        depth += 1
        via.update(candidates)
        layer = sorted(candidates)
    return dist, first


# A node's place in the tree as one int, (hop count << RANK_BITS) | the rank
# of its first hop: keys compare as (hop count, first-hop rank) pairs do, and
# a node offers each neighbour its own key plus ONE_HOP.
RANK_BITS = 32
ONE_HOP = 1 << RANK_BITS
RANK_MASK = ONE_HOP - 1


class FirstHopTree:
    """The :func:`first_hop_tree` of ``source`` over ``adjacency``, kept by
    repair as edges come and go.

    The caller owns ``adjacency``.  After a change of one edge between two
    nodes other than the source it calls :meth:`add_edge` or
    :meth:`remove_edge`; after a change of the source's own edges, or of the
    addresses that rank its neighbours, :meth:`rebuild`.  Each returns the
    nodes whose hop count or first hop moved, reached or not.

    ``key`` maps each reached node to its place (the source to 0), and
    ``hops`` lists the first hops by rank, best first.  Each node but the
    source and its neighbours takes the lowest key its neighbours offer, so
    an edge's removal can only raise keys and its addition only lower them.
    """

    def __init__(self, adjacency: Mapping[str, Iterable[str]], source: str) -> None:
        self.adjacency = adjacency
        self.source = source
        self.hops: list[str] = []
        self.key: dict[str, int] = {source: 0}

    def tree(self) -> tuple[dict[str, int], dict[str, str]]:
        """Hop counts and first hops, as :func:`first_hop_tree` has them."""
        hops = self.hops
        dist = {v: k >> RANK_BITS for v, k in self.key.items()}
        first = {v: hops[k & RANK_MASK] for v, k in self.key.items() if k}
        return dist, first

    def rebuild(self, addr_of: Callable[[str], IPv4Address | None]) -> set[str]:
        """Search afresh, ranking first hops by their ``addr_of``."""
        adjacency, source = self.adjacency, self.source
        old_key, old_hops = self.key, self.hops
        hops = sorted((v for v in adjacency.get(source, ()) if v != source), key=by_address(addr_of))
        key = {source: 0}
        for rank, v in enumerate(hops):
            key[v] = ONE_HOP | rank
        self.key, self.hops = key, hops
        self._lower(hops)
        moved = old_key.keys() - key.keys()
        for v, held in key.items():
            if not held:
                continue  # the source
            was = old_key.get(v)
            if (
                was is None
                or was >> RANK_BITS != held >> RANK_BITS
                or old_hops[was & RANK_MASK] != hops[held & RANK_MASK]
            ):
                moved.add(v)
        return moved

    def add_edge(self, a: str, b: str) -> set[str]:
        """Repair after the edge a-b came: lower keys outward from its
        nearer end."""
        key = self.key
        ka, kb = key.get(a), key.get(b)
        if ka is not None and (kb is None or ka + ONE_HOP < kb):
            start, offer = b, ka + ONE_HOP
        elif kb is not None and (ka is None or kb + ONE_HOP < ka):
            start, offer = a, kb + ONE_HOP
        else:
            return set()
        key[start] = offer
        return self._lower([start])

    def _lower(self, layer: list[str]) -> set[str]:
        """Spread the keys of ``layer``, nodes of one hop count, to every node
        they lower, one hop count at a time; return the nodes lowered, with
        ``layer``."""
        key, adjacency = self.key, self.adjacency
        moved = set(layer)
        # Every node lowered in one pass has the same hop count, so the keys
        # it offers are final once the pass is over.
        while layer:
            lowered = []
            for u in layer:
                offer = key[u] + ONE_HOP
                for v in adjacency.get(u, ()):
                    held = key.get(v)
                    if held is None or offer < held:
                        key[v] = offer
                        lowered.append(v)
            moved.update(lowered)
            layer = lowered
        return moved

    def remove_edge(self, a: str, b: str) -> set[str]:
        """Repair after the edge a-b went: re-home the nodes it cut off."""
        key = self.key
        ka, kb = key.get(a), key.get(b)
        if ka is None or kb is None:
            return set()
        if kb == ka + ONE_HOP:
            child = b
        elif ka == kb + ONE_HOP:
            child = a
        else:
            return set()  # the edge carried no node's key
        adjacency = self.adjacency
        # A node is cut off when no neighbour outside the cut still offers
        # its key.  Those offers come from one hop nearer, so a pass over
        # one hop count at a time settles each node after all it depends on.
        cut: set[str] = set()
        layer = [child]
        while layer:
            below = []
            for v in layer:
                if v in cut:
                    continue
                held = key[v]
                parent = held - ONE_HOP
                for u in adjacency.get(v, ()):
                    if key.get(u) == parent and u not in cut:
                        break
                else:
                    cut.add(v)
                    held += ONE_HOP
                    below.extend(w for w in adjacency.get(v, ()) if key.get(w) == held)
            layer = below
        if not cut:
            return cut
        for v in cut:
            del key[v]
        # Each cut node's best offer from outside the cut, then a
        # shortest-path search over the cut from those offers.
        heap = []
        for v in cut:
            best = None
            for u in adjacency.get(v, ()):
                offer = key.get(u)
                if offer is not None and (best is None or offer < best):
                    best = offer
            if best is not None:
                heap.append((best + ONE_HOP, v))
        heapify(heap)
        while heap:
            offer, v = heappop(heap)
            if v in key:
                continue
            key[v] = offer
            offer += ONE_HOP
            for w in adjacency.get(v, ()):
                if w in cut and w not in key:
                    heappush(heap, (offer, w))
        return cut


def route_key(prefix: IPv4Network) -> int:
    """The int that identifies ``prefix``: its network address over six
    bits of prefix length.  The routing layer keeps no other form of it."""
    return int(prefix.network_address) << 6 | prefix.prefixlen


def route_prefix(key: int) -> IPv4Network:
    """The prefix whose :func:`route_key` is ``key``."""
    return IPv4Network((key >> 6, key & 63))


class RouteEntry(NamedTuple):
    """The route to one prefix; the table stores it under the prefix's key."""

    next_hop: str | None  # None: deliver on a local interface
    hop_count: int


class RoutingTable:
    """Routes by prefix, answering longest-prefix-match lookups.

    ``routes`` maps each prefix's :func:`route_key` to its entry, read-only;
    a rule that needs the prefix as a network rebuilds it with
    :func:`route_prefix`.  The table changes only by :meth:`patch`, which
    writes the lookup index as well, so no lookup reads a stale table.
    """

    def __init__(self) -> None:
        self._routes: dict[int, RouteEntry] = {}
        self._view = MappingProxyType(self._routes)
        # One dict per prefix length, keyed by network address, and the same
        # dicts listed longest first with their masks.
        self._by_length: dict[int, dict[int, RouteEntry]] = {}
        self._index: list[tuple[int, dict[int, RouteEntry]]] = []

    @property
    def routes(self) -> Mapping[int, RouteEntry]:
        return self._view

    def patch(self, changed: Mapping[int, RouteEntry], removed: Iterable[int]) -> None:
        """Drop the routes under the ``removed`` route keys, then write the
        ``changed`` entries under theirs."""
        routes, by_length = self._routes, self._by_length
        relist = False
        for key in removed:
            del routes[key]
            held = by_length[key & 63]
            del held[key >> 6]
            if not held:
                del by_length[key & 63]
                relist = True
        for key, entry in changed.items():
            routes[key] = entry
            held = by_length.get(key & 63)
            if held is None:
                held = by_length[key & 63] = {}
                relist = True
            held[key >> 6] = entry
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


class PrefixRoutes:
    """The route to each prefix over a :class:`FirstHopTree`, kept in
    ``table``: the source's own route, if it originates the prefix, or else
    the one via the node offering it with the lowest (hop count, id).  A
    prefix is its route key throughout: a host route costs one int.

    The caller says what changed: what a node offers (:meth:`offer`), an
    edge between two nodes other than the source (:meth:`add_edge`,
    :meth:`remove_edge`), or the source's own edges or the addresses that
    rank its neighbours (:meth:`rebuild`).  Each marks the route keys whose
    choice may have moved, and :meth:`update` chooses those again.
    """

    def __init__(
        self, adjacency: Mapping[str, Iterable[str]], source: str, own: Iterable[IPv4Network]
    ) -> None:
        self.tree = FirstHopTree(adjacency, source)
        self.table = RoutingTable()
        # Per node, the route keys it offers; per route key, the nodes
        # offering it.
        self._offers: dict[str, tuple[int, ...]] = {}
        self._offered_by: dict[int, set[str]] = {}
        self._own_routes = dict.fromkeys(map(route_key, own), RouteEntry(None, 0))
        self._dirty: set[int] = set(self._own_routes)  # the keys to choose again

    def offer(
        self, node: str, addresses: Iterable[IPv4Address], prefixes: Iterable[IPv4Network] = ()
    ) -> None:
        """Make ``node`` offer a host route to each of ``addresses``, then a
        route to each of ``prefixes``, in place of what it offered before."""
        index, dirty = self._offered_by, self._dirty
        for key in self._offers.pop(node, ()):
            held = index.get(key)
            if held:
                held.discard(node)
                if not held:
                    del index[key]
            dirty.add(key)
        keys = [int(addr) << 6 | 32 for addr in addresses]  # each one's /32
        keys.extend(map(route_key, prefixes))
        if keys:
            self._offers[node] = tuple(keys)
            for key in keys:
                index.setdefault(key, set()).add(node)
            dirty.update(keys)

    def rebuild(self, addr_of: Callable[[str], IPv4Address | None]) -> None:
        """Search the tree afresh, ranking first hops by their ``addr_of``."""
        self._moved(self.tree.rebuild(addr_of))

    def add_edge(self, a: str, b: str) -> None:
        self._moved(self.tree.add_edge(a, b))

    def remove_edge(self, a: str, b: str) -> None:
        self._moved(self.tree.remove_edge(a, b))

    def _moved(self, nodes: Iterable[str]) -> None:
        """Mark the route keys offered by ``nodes``, whose place moved."""
        offers, dirty = self._offers, self._dirty
        for node in nodes:
            dirty.update(offers.get(node, ()))

    def update(self) -> bool:
        """Choose the route of every marked key again and patch the table;
        True if a route was gained, lost or moved."""
        dirty = self._dirty
        if not dirty:
            return False
        self._dirty = set()
        own, index = self._own_routes, self._offered_by
        routes, place, hops = self.table.routes, self.tree.key, self.tree.hops
        changed: dict[int, RouteEntry] = {}
        gone: list[int] = []
        for key in sorted(dirty):
            new = own.get(key)
            if new is None:
                reached = [(place[n] >> RANK_BITS, n) for n in index.get(key, ()) if n in place]
                if reached:
                    hop_count, best = min(reached)
                    new = RouteEntry(hops[place[best] & RANK_MASK], hop_count)
            old = routes.get(key)
            if new is None:
                if old is not None:
                    gone.append(key)
            elif old != new:
                changed[key] = new
        if not (changed or gone):
            return False
        self.table.patch(changed, gone)
        return True
