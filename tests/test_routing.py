"""The first-hop tree kept by repair against a full search, and the route
key that names each prefix."""
import random
from ipaddress import IPv4Address, IPv4Network

from hypothesis import given, settings
from hypothesis import strategies as st

from meshsdn.routing import FirstHopTree, PrefixRoutes, first_hop_tree, route_key, route_prefix

NODES = tuple(f"n{i}" for i in range(12))
SOURCE = NODES[0]
others = st.sampled_from(NODES[1:])

# Each step changes one edge between two nodes other than the source (a
# self-loop included), which the tree repairs; or one of the source's own
# edges, or one node's address, which take a full search.  Addresses come
# from a small pool, so first hops tie on address and fall back to node id.
tree_steps = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), others, others),
        st.tuples(st.just("own edge"), others),
        st.tuples(st.just("address"), others, st.integers(1, 4)),
    ),
    min_size=1,
    max_size=40,
)


def positions(tree):
    dist, first = tree.tree()
    return {v: (dist[v], first.get(v)) for v in dist}


def toggle(adj, a, b):
    if b in adj[a]:
        adj[a].discard(b)
        adj[b].discard(a)
        return False
    adj[a].add(b)
    adj[b].add(a)
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, len(NODES)), tree_steps)
def test_repaired_tree_matches_a_full_search_after_every_step(case_seed, n, steps):
    rng = random.Random(case_seed)
    nodes = NODES[:n]
    adj = {v: set() for v in NODES}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if rng.random() < 0.3:
                toggle(adj, a, b)
    addrs = {v: IPv4Address(f"10.0.0.{rng.randint(1, 4)}") for v in NODES}
    tree = FirstHopTree(adj, SOURCE)
    tree.rebuild(addrs.get)
    for step in steps:
        before = positions(tree)
        if step[0] == "edge":
            _, a, b = step
            moved = tree.add_edge(a, b) if toggle(adj, a, b) else tree.remove_edge(a, b)
        elif step[0] == "own edge":
            toggle(adj, SOURCE, step[1])
            moved = tree.rebuild(addrs.get)
        else:
            _, node, host = step
            addrs[node] = IPv4Address(f"10.0.0.{host}")
            moved = tree.rebuild(addrs.get)
        dist, first = first_hop_tree(adj, SOURCE, addrs.get)
        got_dist, got_first = tree.tree()
        for v in NODES:
            assert (got_dist.get(v), got_first.get(v)) == (dist.get(v), first.get(v)), v
        # What moved is exactly the nodes whose hop count or first hop did.
        after = positions(tree)
        assert moved == {v for v in before.keys() | after.keys() if before.get(v) != after.get(v)}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 32))
def test_a_route_key_gives_back_its_prefix(addr, length):
    prefix = IPv4Network((addr, length), strict=False)
    assert route_prefix(route_key(prefix)) == prefix
    # An offered address is keyed as its /32 is, without building it.
    routes = PrefixRoutes({}, SOURCE, ())
    routes.offer("n1", [IPv4Address(addr)], [prefix])
    assert routes._offers["n1"] == (route_key(IPv4Network((addr, 32))), route_key(prefix))
