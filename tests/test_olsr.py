"""Neighbor sensing, flooding, and route computation.

The two-node timeline tests pin exact instants, so they run with zero jitter
and phase randomization off: Hellos then fire at exactly 0, 5, 10... seconds
and a 1 ms wire delay puts every arrival at a known microsecond.
"""
import random
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshsdn.engine import Simulator, to_us
from meshsdn.olsr import FloodMsg, HelloMsg, OlsrConfig, OlsrDaemon
from meshsdn.routing import RouteEntry, RoutingTable, first_hop_tree, route_key
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation
from meshsdn.topology import Link

PINNED = OlsrConfig(jitter=0.0, randomize_phase=False)


class Wire:
    """Direct transport between daemons; honors Link.up at send and delivery."""

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator(seed)
        self.daemons: dict[str, OlsrDaemon] = {}
        self.incident: dict[str, list[tuple[str, Link]]] = {}
        self.log: list[tuple[str, dict]] = []

    def add(self, node_id: str, addr: str, hna: tuple[str, ...] = ()) -> OlsrDaemon:
        # ``connect`` fills the node's links in place before the daemon starts.
        self.incident[node_id] = []
        daemon = OlsrDaemon(
            node_id,
            [IPv4Address(addr)],
            [IPv4Network(p) for p in hna],
            PINNED,
            self.sim,
            links=self.incident[node_id],
            broadcast=lambda links, msg, me=node_id: self._broadcast(me, links, msg),
            flood=lambda links, msg, me=node_id: self._broadcast(me, links, msg),
            log=lambda kind, data: self.log.append((kind, data)),
        )
        self.daemons[node_id] = daemon
        return daemon

    def connect(self, a: str, b: str, delay_us: int = 1000) -> Link:
        link = Link(a, b, capacity_bps=10_000_000, delay_us=delay_us)
        self.incident[a].append((b, link))
        self.incident[b].append((a, link))
        return link

    def _broadcast(self, sender: str, links: list[Link], msg: object) -> None:
        for link in links:
            if link.up:
                receiver = link.other(sender)
                self.sim.schedule(
                    link.delay_us,
                    lambda link=link, receiver=receiver: self._deliver(receiver, link, msg),
                    kind="deliver",
                )

    def _deliver(self, receiver: str, link: Link, msg: object) -> None:
        if not link.up:
            return
        daemon = self.daemons[receiver]
        if isinstance(msg, HelloMsg):
            daemon.handle_hello(msg)
        elif isinstance(msg, FloodMsg):
            daemon.handle_flood(msg, link)

    def start(self) -> None:
        for daemon in self.daemons.values():
            daemon.start()


def two_nodes() -> tuple[Wire, OlsrDaemon, OlsrDaemon, Link]:
    wire = Wire()
    a = wire.add("a", "10.0.0.1", ("192.168.1.0/24",))
    b = wire.add("b", "10.0.0.2")
    link = wire.connect("a", "b")
    wire.start()
    return wire, a, b, link


def test_three_consecutive_hellos_bring_a_neighbor_up():
    wire, a, b, _ = two_nodes()
    # Hellos leave at 0, 5, 10 s and arrive 1 ms later; the third one flips
    # the link symmetric.
    wire.sim.run_until(to_us(10.0005))
    assert a.sym_neighbors() == [] and b.sym_neighbors() == []
    wire.sim.run_until(to_us(10.3))
    assert a.sym_neighbors() == ["b"] and b.sym_neighbors() == ["a"]


def test_sym_triggers_lsa_exchange_and_routes():
    wire, a, b, _ = two_nodes()
    wire.sim.run_until(to_us(10.3))
    assert set(a.link_state) == {"b"} and set(b.link_state) == {"a"}
    assert b.link_state["a"].hna == (IPv4Network("192.168.1.0/24"),)
    fm = b.routing_table.forwarding_map()
    assert fm[IPv4Network("10.0.0.1/32")] == ("a", 1)
    assert fm[IPv4Network("192.168.1.0/24")] == ("a", 1)
    # a's view of b likewise
    assert a.routing_table.forwarding_map()[IPv4Network("10.0.0.2/32")] == ("b", 1)


def test_silence_expires_neighbor_and_link_state():
    wire, a, b, link = two_nodes()
    wire.sim.run_until(to_us(10.3))
    link.up = False
    # Last Hello landed at 10.001; hold is 3 intervals = 15 s, so the check
    # scheduled by that Hello fires at 25.001 and removes the record.  The
    # stored LSA (landed 10.002, validity 15 s) expires alongside it.
    wire.sim.run_until(to_us(24.9))
    assert b.sym_neighbors() == ["a"]
    wire.sim.run_until(to_us(25.3))
    assert b.neighbors == {} and b.link_state == {}
    assert b.routing_table.forwarding_map() == {}
    assert a.routing_table.forwarding_map() == {
        IPv4Network("192.168.1.0/24"): (None, 0)
    }


def test_sensing_restarts_from_one_after_expiry():
    wire, a, b, link = two_nodes()
    wire.sim.run_until(to_us(10.3))
    link.up = False
    wire.sim.run_until(to_us(29.9))
    link.up = True
    # Hellos resume with the 30 s tick; the old record is gone, so symmetry
    # needs three fresh Hellos again (30, 35, 40) rather than one.
    wire.sim.run_until(to_us(35.5))
    assert b.sym_neighbors() == []
    wire.sim.run_until(to_us(40.1))
    assert b.sym_neighbors() == ["a"]
    assert b.routing_table.forwarding_map()[IPv4Network("10.0.0.1/32")] == ("a", 1)


def test_duplicate_floods_are_suppressed():
    wire, a, b, link = two_nodes()
    wire.sim.run_until(to_us(10.3))
    version = b.routes_version
    msg = FloodMsg(
        origin="zz",
        seq=1,
        addresses=(IPv4Address("10.0.0.9"),),
        neighbors=("b",),
        hna=(),
        validity_us=to_us(15.0),
    )
    b.handle_flood(msg, link)
    assert b.link_state["zz"].seq == 1
    changed = b.routes_version
    b.handle_flood(msg, link)  # same sequence number: ignored
    assert b.routes_version == changed
    stale = FloodMsg("zz", 0, msg.addresses, (), (), to_us(15.0))
    b.handle_flood(stale, link)
    assert b.link_state["zz"].neighbors == ("b",)  # old content kept
    assert version <= changed


def test_remote_edges_need_mutual_advertisement():
    wire, a, b, link = two_nodes()
    wire.sim.run_until(to_us(10.3))
    # b hears that c neighbors z, but z's own LSA does not list c back.
    c_msg = FloodMsg("c", 1, (IPv4Address("10.0.0.3"),), ("b", "z"), (), to_us(30.0))
    z_msg = FloodMsg("z", 1, (IPv4Address("10.0.0.4"),), (), (), to_us(30.0))
    b.handle_flood(c_msg, link)
    b.handle_flood(z_msg, link)
    # The half-advertised c-z edge must stay out of the graph, so z gets no
    # route even though its address is known from its own LSA.
    assert IPv4Network("10.0.0.4/32") not in b.routing_table.forwarding_map()
    z_fixed = FloodMsg("z", 2, (IPv4Address("10.0.0.4"),), ("c",), (), to_us(30.0))
    b.handle_flood(z_fixed, link)
    graph = b.graph()
    assert "z" in graph.get("c", set()) and "c" in graph.get("z", set())


def test_own_edges_come_from_local_sensing_only():
    wire, a, b, link = two_nodes()
    wire.sim.run_until(to_us(10.3))
    # A forged LSA claiming b neighbors "ghost" must not add an edge at b
    # itself; b trusts its own Hello records for its incident edges.
    assert b.graph()["b"] == {"a"}


def test_first_hop_tree_tie_breaks_on_lowest_first_hop_address():
    adj = {"a": {"b", "c"}, "b": {"a", "d"}, "c": {"a", "d"}, "d": {"b", "c"}}
    addrs = {
        "a": IPv4Address("10.0.0.1"),
        "b": IPv4Address("10.0.0.2"),
        "c": IPv4Address("10.0.0.3"),
        "d": IPv4Address("10.0.0.4"),
    }
    dist, first = first_hop_tree(adj, "a", addrs.get)
    assert dist == {"a": 0, "b": 1, "c": 1, "d": 2}
    assert first["d"] == "b"  # 10.0.0.2 beats 10.0.0.3
    # Raising b's address flips the choice.
    addrs["b"] = IPv4Address("10.0.0.9")
    _, first = first_hop_tree(adj, "a", addrs.get)
    assert first["d"] == "c"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_first_hop_tree_matches_bfs_oracle(case_seed):
    rng = random.Random(case_seed)
    n = rng.randint(2, 8)
    nodes = [f"n{i}" for i in range(n)]
    adj = {v: set() for v in nodes}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                adj[nodes[i]].add(nodes[j])
                adj[nodes[j]].add(nodes[i])
    addrs = {v: IPv4Address(f"10.0.1.{i + 1}") for i, v in enumerate(nodes)}
    source = nodes[0]

    # Independent oracle: plain BFS distances.
    oracle = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in oracle:
                    oracle[v] = oracle[u] + 1
                    nxt.append(v)
        frontier = nxt

    dist, first = first_hop_tree(adj, source, addrs.get)
    assert dist == oracle
    from_neighbor = {f: first_hop_tree(adj, f, addrs.get)[0] for f in adj[source]}
    for v, f in first.items():
        assert f in adj[source]
        # Stepping to the first hop shortens the distance by exactly one.
        sub = first_hop_tree(adj, f, addrs.get)[0]
        assert sub[v] == dist[v] - 1
        # No other neighbor on a shortest path has a lower address.
        on_shortest = [g for g in adj[source] if from_neighbor[g].get(v) == dist[v] - 1]
        assert f == min(on_shortest, key=lambda g: int(addrs[g]))

    # Iteration order of the adjacency must not matter.
    shuffled_nodes = nodes[:]
    rng.shuffle(shuffled_nodes)
    shuffled = {v: adj[v] for v in shuffled_nodes}
    assert first_hop_tree(shuffled, source, addrs.get) == (dist, first)


CHAIN_DOC = {
    "name": "chain",
    "duration_s": 30.0,
    "olsr": {"jitter": 0.0, "randomize_phase": False},
    "eftm": {"randomize_phase": False},
    "wmrs": [
        {"id": "wmr1", "mesh_addr": "10.0.0.1", "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}]},
        {"id": "wmr2", "mesh_addr": "10.0.0.2", "access": [{"subnet": "192.168.2.0/24", "addr": "192.168.2.1"}]},
        {"id": "wmr3", "mesh_addr": "10.0.0.3"},
        {"id": "wmr4", "mesh_addr": "10.0.0.4"},
        {"id": "wmr5", "mesh_addr": "10.0.0.5", "access": [{"subnet": "192.168.3.0/24", "addr": "192.168.3.1"}]},
        {"id": "wmr6", "mesh_addr": "10.0.0.6", "gateway": True},
    ],
    "controllers": [
        {"id": "ctrl1", "addr": "10.0.255.1", "attach": "wmr4"},
        {"id": "ctrl2", "addr": "10.0.255.2", "attach": "wmr1"},
    ],
    "links": [
        {"a": "wmr1", "b": "wmr2"},
        {"a": "wmr2", "b": "wmr3"},
        {"a": "wmr3", "b": "wmr4"},
        {"a": "wmr4", "b": "wmr5"},
        {"a": "wmr5", "b": "wmr6"},
    ],
}


def test_converged_chain_routes_from_wmr1():
    sim = Simulation(scenario_from_mapping(dict(CHAIN_DOC), source="chain"), seed=0)
    sim.run()
    fm = sim.wmrs["wmr1"].daemon.routing_table.forwarding_map()
    net = IPv4Network
    assert fm[net("192.168.1.0/24")] == (None, 0)
    assert fm[net("10.0.0.2/32")] == ("wmr2", 1)
    assert fm[net("192.168.2.0/24")] == ("wmr2", 1)
    assert fm[net("10.0.255.2/32")] == ("ctrl2", 1)
    assert fm[net("10.0.0.4/32")] == ("wmr2", 3)
    assert fm[net("10.0.255.1/32")] == ("wmr2", 4)
    assert fm[net("192.168.3.0/24")] == ("wmr2", 4)
    assert fm[net("0.0.0.0/0")] == ("wmr2", 5)
    assert fm[net("10.0.0.6/32")] == ("wmr2", 5)


def test_equal_cost_routes_prefer_lower_first_hop_address():
    doc = {
        "name": "square",
        "duration_s": 30.0,
        "olsr": {"jitter": 0.0, "randomize_phase": False},
        "wmrs": [
            {"id": "wmr1", "mesh_addr": "10.0.0.1"},
            {"id": "wmr2", "mesh_addr": "10.0.0.2"},
            {"id": "wmr3", "mesh_addr": "10.0.0.3"},
            {"id": "wmr4", "mesh_addr": "10.0.0.4"},
        ],
        "links": [
            {"a": "wmr1", "b": "wmr2"},
            {"a": "wmr1", "b": "wmr3"},
            {"a": "wmr2", "b": "wmr4"},
            {"a": "wmr3", "b": "wmr4"},
        ],
    }
    sim = Simulation(scenario_from_mapping(doc, source="square"), seed=0)
    sim.run()
    entry = sim.wmrs["wmr1"].daemon.routing_table.lookup(IPv4Address("10.0.0.4"))
    assert entry is not None and (entry.next_hop, entry.hop_count) == ("wmr2", 2)


def test_longest_prefix_lookup():
    table = RoutingTable(
        {
            IPv4Network(prefix): RouteEntry(hop, 1)
            for prefix, hop in [("10.0.0.0/16", "x"), ("10.0.2.0/24", "y"), ("10.0.2.7/32", "z")]
        }
    )
    assert table.lookup(IPv4Address("10.0.2.7")).next_hop == "z"
    assert table.lookup(IPv4Address("10.0.2.9")).next_hop == "y"
    assert table.lookup(IPv4Address("10.0.9.9")).next_hop == "x"
    assert table.lookup(IPv4Address("172.16.0.1")) is None


def linear_lookup(entries, addr):
    """Reference longest-prefix match: scan every route."""
    best = None
    for prefix, entry in entries.items():
        if addr in prefix and (best is None or prefix.prefixlen > best.prefixlen):
            best = prefix
    return None if best is None else entries[best]


# A small address pool, so random prefixes overlap and probes also miss.
pool_addresses = st.builds(
    lambda a, b, c, d: IPv4Address(f"{a}.{b}.{c}.{d}"),
    st.sampled_from([10, 172]),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 5),
)
route_tables = st.dictionaries(
    st.builds(
        lambda addr, length: IPv4Network(f"{addr}/{length}", strict=False),
        pool_addresses,
        st.sampled_from([0, 16, 24, 32]),
    ),
    st.sampled_from(["a", "b", "c"]),
    max_size=12,
).map(lambda hops: {p: RouteEntry(hop, 1) for p, hop in hops.items()})


def assert_lookups(table, entries, probes):
    """Each probe finds the route a linear scan of ``entries`` finds, given
    as an address or as its int value."""
    for addr in probes:
        expected = linear_lookup(entries, addr)
        assert table.lookup(addr) is expected
        assert table.lookup(int(addr)) is expected


def patch_table(table, old, new):
    """Patch ``table`` from the routes ``old`` to ``new``, as a recompute does."""
    table.patch(
        {route_key(p): (p, e) for p, e in new.items() if old.get(p) is not e},
        [route_key(p) for p in old if p not in new],
    )


@settings(max_examples=200, deadline=None)
@given(route_tables, route_tables, route_tables, st.lists(pool_addresses, min_size=1, max_size=8))
def test_lookup_matches_linear_scan_after_replacement(first, second, third, probes):
    routes = dict(first)
    table = RoutingTable(routes)
    assert_lookups(table, first, probes)
    # Changing the dict the table was built from does not reach the table ...
    routes.clear()
    routes.update(second)
    assert_lookups(table, first, probes)
    # ... and the table itself only changes by a patch.
    default = IPv4Network("0.0.0.0/0")
    with pytest.raises(TypeError):
        table.routes[route_key(default)] = (default, RouteEntry("d", 1))
    with pytest.raises(AttributeError):
        table.routes = {}
    # A patch reaches the routes and the lookup index alike ...
    patch_table(table, first, second)
    assert dict(table.routes.values()) == second
    assert_lookups(table, second, probes)
    patch_table(table, second, third)
    assert dict(table.routes.values()) == third
    assert_lookups(table, third, probes)
    # ... also on a table no lookup has read yet, and on one built empty.
    for start in (first, {}):
        fresh = RoutingTable(start)
        patch_table(fresh, start, third)
        assert dict(fresh.routes.values()) == third
        assert_lookups(fresh, third, probes)


# -- the daemon's kept graph and routes against a full rebuild ----------------

ME = "n0"
NODES = ("n0", "n1", "n2", "n3", "n4")
HELLO_FROM = ("n1", "n2", "n3")
# Few nodes, so random neighbour lists often confirm each other; advertised
# addresses and prefixes come from small pools, so origins offer the same
# prefixes and equal-cost first hops trade places.
LSA_ADDRESSES = ((), ("10.0.0.1",), ("10.0.0.2",), ("10.0.0.5",), ("10.0.0.9", "10.0.0.3"))
LSA_HNA = ((), ("0.0.0.0/0",), ("192.168.0.0/24",), ("0.0.0.0/0", "192.168.3.0/24"))

daemon_steps = st.lists(
    st.one_of(
        st.tuples(st.just("hello"), st.sampled_from(HELLO_FROM)),
        st.tuples(
            st.just("lsa"),
            st.sampled_from(NODES[1:]),
            st.integers(-1, 3),  # sequence step; 0 or less is stale
            # None, for each of these three: what the origin advertised last.
            st.none() | st.frozensets(st.sampled_from(NODES)),
            st.none() | st.sampled_from(LSA_ADDRESSES),
            st.none() | st.sampled_from(LSA_HNA),
            st.sampled_from((4.0, 15.0, 40.0)),  # validity, seconds
        ),
        st.tuples(st.just("wait"), st.sampled_from((0.5, 2.0, 6.0, 16.0))),
    ),
    min_size=20,
    max_size=60,
)


def reference_graph(daemon):
    """``graph()`` as a full scan of the neighbour and link-state tables."""
    me = daemon.node_id
    own = {
        n
        for n, rec in daemon.neighbors.items()
        if rec.consecutive_hellos >= daemon.cfg.hellos_to_up
    }
    adj = {me: set(own)}
    for nbr in own:
        adj[nbr] = {me}
    for origin, entry in daemon.link_state.items():
        for other in entry.neighbors:
            if other == me or origin == me:
                continue
            peer = daemon.link_state.get(other)
            if peer is not None and origin in peer.neighbors:
                adj.setdefault(origin, set()).add(other)
    return adj


def reference_tree(daemon):
    """Hop counts and first hops searched from scratch over the daemon's
    tables."""

    def addr_of(node):
        entry = daemon.link_state.get(node)
        if entry is not None and entry.addresses:
            return entry.addresses[0]
        rec = daemon.neighbors.get(node)
        return rec.address if rec is not None else None

    return first_hop_tree(reference_graph(daemon), daemon.node_id, addr_of)


def reference_forwarding_map(daemon):
    """The routing table built from scratch out of the daemon's tables."""
    me = daemon.node_id
    dist, first = reference_tree(daemon)
    routes = {prefix: (None, 0) for prefix in daemon.originated_hna}
    for node in sorted(dist, key=lambda n: (dist[n], n)):
        if node == me:
            continue
        entry = daemon.link_state.get(node)
        if entry is not None:
            prefixes = [IPv4Network((int(a), 32)) for a in entry.addresses] + list(entry.hna)
        else:
            prefixes = [IPv4Network((int(daemon.neighbors[node].address), 32))]
        for prefix in prefixes:
            routes.setdefault(prefix, (first[node], dist[node]))
    return routes


def lone_daemon(hellos_to_up=1, route_maps=None):
    """A started daemon ``ME`` with links to ``HELLO_FROM`` that lead nowhere.

    Given a list ``route_maps``, the daemon appends its forwarding map to it
    at each ``OlsrRouteChange`` it logs, once the record's entry count is
    checked against the map.
    """

    def log(kind, data):
        if kind == "OlsrRouteChange" and route_maps is not None:
            routes = daemon.routing_table.forwarding_map()
            assert data["entries"] == len(routes)
            route_maps.append(routes)

    sim = Simulator(0)
    # Not in id order, so that flood links kept in id order would show.
    order = (*HELLO_FROM[1:], HELLO_FROM[0])
    links = [(nbr, Link(ME, nbr, capacity_bps=1, delay_us=0)) for nbr in order]
    daemon = OlsrDaemon(
        ME,
        [IPv4Address("10.0.0.4")],
        [IPv4Network("192.168.0.0/24")],
        OlsrConfig(jitter=0.0, randomize_phase=False, hellos_to_up=hellos_to_up),
        sim,
        links=links,
        broadcast=lambda links, msg: None,
        flood=lambda links, msg: None,
        log=log,
    )
    daemon.start()
    return sim, daemon, links[0][1]


def hello_from(daemon, nbr):
    daemon.handle_hello(HelloMsg(nbr, IPv4Address(f"10.0.0.{NODES.index(nbr) + 10}")))


def assert_matches_full_rebuild(daemon):
    assert daemon.graph() == reference_graph(daemon)
    # The kept tree, node by node, first hop included.
    assert daemon._routes.tree.tree() == reference_tree(daemon)
    assert daemon.routing_table.forwarding_map() == reference_forwarding_map(daemon)
    assert daemon.sym_neighbors() == sorted(reference_graph(daemon)[ME])
    assert_sym_links(daemon)


def assert_sym_links(daemon):
    """Every flood goes over the links to the daemon's symmetric
    neighbours, in the order ``links`` lists them."""
    sym = reference_graph(daemon)[daemon.node_id]
    assert daemon._sym_links == tuple(link for nbr, link in daemon._links if nbr in sym)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2)), daemon_steps)
# n1 and n3 are lost at 15 s and leave the flood links; n2 stays.
@example(
    1,
    [
        *(("hello", nbr) for nbr in HELLO_FROM),
        ("wait", 6.0),
        ("hello", "n2"),
        ("wait", 6.0),
        ("hello", "n2"),
        ("wait", 6.0),
    ],
)
def test_kept_graph_and_routes_match_a_full_rebuild(hellos_to_up, steps):
    route_maps = []
    sim, daemon, link = lone_daemon(hellos_to_up, route_maps)
    seqs: dict[str, int] = {}
    advertised: dict[str, tuple] = {}
    for step in steps:
        before, logged = daemon.routing_table.forwarding_map(), len(route_maps)
        if step[0] == "hello":
            hello_from(daemon, step[1])
        elif step[0] == "lsa":
            _, origin, seq_step, neighbors, addresses, hna, validity_s = step
            seq = max(seqs.get(origin, 0) + seq_step, 0)
            seqs[origin] = max(seqs.get(origin, 0), seq)
            last = advertised.get(origin, (frozenset(), (), ()))
            neighbors, addresses, hna = (
                drawn if drawn is not None else held
                for drawn, held in zip((neighbors, addresses, hna), last)
            )
            advertised[origin] = (neighbors, addresses, hna)
            msg = FloodMsg(
                origin,
                seq,
                tuple(IPv4Address(a) for a in addresses),
                tuple(sorted(neighbors)),
                tuple(IPv4Network(p) for p in hna),
                to_us(validity_s),
            )
            daemon.handle_flood(msg, link)
        else:
            sim.run_until(sim.now() + to_us(step[1]))
        assert_matches_full_rebuild(daemon)
        if len(route_maps) == logged:
            assert daemon.routing_table.forwarding_map() == before
    # A route change is logged when, and only when, some route was gained,
    # lost, or moved to another next hop or hop count.
    for previous, routes in zip([{}, *route_maps], route_maps):
        assert routes != previous


def flood(daemon, link, origin, seq, addr, neighbors):
    msg = FloodMsg(origin, seq, (IPv4Address(addr),), neighbors, (), to_us(15.0))
    daemon.handle_flood(msg, link)
    assert_matches_full_rebuild(daemon)


def test_renumbered_first_hop_moves_equal_cost_routes():
    # n4 is two hops away through n1 and through n2.  When n1 re-advertises
    # the same neighbours under a higher address, n2 becomes the first hop,
    # though no edge came or went.
    _, daemon, link = lone_daemon()
    hello_from(daemon, "n1")
    hello_from(daemon, "n2")
    flood(daemon, link, "n1", 1, "10.0.0.1", ("n0", "n4"))
    flood(daemon, link, "n2", 1, "10.0.0.2", ("n0", "n4"))
    flood(daemon, link, "n4", 1, "10.0.0.5", ("n1", "n2"))
    flood(daemon, link, "n1", 2, "10.0.0.9", ("n0", "n4"))
    entry = daemon.routing_table.lookup(IPv4Address("10.0.0.5"))
    assert (entry.next_hop, entry.hop_count) == ("n2", 2)


def test_remote_edge_confirmed_then_withdrawn_under_unchanged_prefixes():
    # Only the neighbour lists change: the n1-n4 edge is confirmed from n1,
    # which the last search reached, towards n4, which it did not; then n4
    # withdraws it.
    _, daemon, link = lone_daemon()
    hello_from(daemon, "n1")
    flood(daemon, link, "n1", 1, "10.0.0.1", ("n0",))
    flood(daemon, link, "n4", 1, "10.0.0.5", ("n1",))
    flood(daemon, link, "n1", 2, "10.0.0.1", ("n0", "n4"))
    entry = daemon.routing_table.lookup(IPv4Address("10.0.0.5"))
    assert (entry.next_hop, entry.hop_count) == ("n1", 2)
    flood(daemon, link, "n4", 2, "10.0.0.5", ())
    assert daemon.routing_table.lookup(IPv4Address("10.0.0.5")) is None
