"""Shortest-path first-hop trees over an undirected graph of node ids.

A router routes each destination through its first hop on a shortest path,
by hop count; among equal-cost paths the first hop is the neighbour that
ranks first :func:`by_address`.  :func:`first_hop_tree` computes that tree
with a full search.  :class:`FirstHopTree` keeps one up to date as single
edges come and go, repairing only the nodes whose position the edge moves,
as in the dynamic shortest-path algorithms of Ramalingam and Reps (J.
Algorithms 1996) and of Narváez, Siu and Tzeng (IEEE/ACM ToN 2000) on a
graph whose every edge weighs one hop.  Neither holds any daemon state.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from ipaddress import IPv4Address
from typing import Callable, Iterable, Mapping


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

    The caller owns ``adjacency`` and changes it; after each change of one
    edge between two nodes other than the source it calls :meth:`add_edge`
    or :meth:`remove_edge`, which repair the tree in place.  A change of the
    source's own edges, or of the addresses that rank its neighbours as
    first hops, needs a :meth:`rebuild`.  Each of the three returns the
    nodes whose hop count or first hop moved, reached or unreached ones
    included.

    ``key`` maps each reached node to its place (the source to 0; see
    ``ONE_HOP``), and ``hops`` lists the first hops by rank, best first.
    The source's neighbours sit one hop away at their own rank; every other
    node takes the lowest key its neighbours offer, so an edge's removal
    can only raise keys and its addition only lower them.
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
