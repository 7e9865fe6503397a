"""Shared helpers for the test suite.

Holds the builtin-scenario loader, a stub switch host, an event budget for
whole runs, and the random mesh generator used by the exhaustive
selection/routing checks.  Every generated scenario is connected at build
time, flips a few mesh links mid-run, and then stays quiet long enough for
neighbor expiry, flood revalidation, and re-selection to settle before the
final state is examined.
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from importlib import resources
from ipaddress import IPv4Address
from typing import Iterator

import yaml

from meshsdn.engine import Simulator
from meshsdn.scenario import Scenario, scenario_from_mapping

# Link flips stop at QUIET_FROM; by DURATION every 15 s expiry horizon plus a
# few probe cycles has passed, so protocol state is converged when sampled.
QUIET_FROM = 60.0
DURATION = 100.0


# Two routers, a controller behind the second and a host behind the first.
TWO_ROUTERS = {
    "name": "tiny",
    "duration_s": 10.0,
    "wmrs": [
        {
            "id": "wmr1",
            "mesh_addr": "10.0.0.1",
            "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}],
        },
        {"id": "wmr2", "mesh_addr": "10.0.0.2"},
    ],
    "controllers": [{"id": "ctrl1", "addr": "10.0.255.1", "attach": "wmr2"}],
    "hosts": [{"id": "h1", "addr": "192.168.1.10", "attach": "wmr1"}],
    "links": [{"a": "wmr1", "b": "wmr2"}],
}


class StubHost:
    """A switch host for tests that exercise only the flow table: it owns no
    address, has no route and no controller, takes any node for a neighbour,
    and ignores what its switch hands it."""

    local = frozenset()
    access_networks = ()
    master = None

    def route(self, dst):
        return None

    def is_neighbor(self, node_id):
        return True

    def send_to_neighbor(self, neighbor, packet):
        pass

    def deliver_local(self, packet):
        pass

    def raise_packet_in(self, packet):
        pass


# The most events one run under ``event_budget`` may schedule: about five
# times the most that any shipped-scenario seed or random mesh of the
# acceptance batches schedules (18,354, on a random mesh).
EVENT_BUDGET = 100_000
# The budget ``conftest.py`` puts every in-process run of the suite under:
# above the largest, grid-partition-6x6/0 of ``test_digests.py`` (139,987).
SUITE_EVENT_BUDGET = 250_000


class EventBudgetExceeded(RuntimeError):
    pass


@contextmanager
def event_budget(limit: int = EVENT_BUDGET) -> Iterator[None]:
    """Make any simulator that schedules more than ``limit`` events raise
    :class:`EventBudgetExceeded`, so a run that loops fails at once instead
    of growing until something kills it."""
    schedule = Simulator.schedule

    def budgeted(sim, delay, callback, *, target="", kind=""):
        if sim._seq >= limit:
            raise EventBudgetExceeded(f"a run scheduled more than {limit} events")
        return schedule(sim, delay, callback, target=target, kind=kind)

    Simulator.schedule = budgeted
    try:
        yield
    finally:
        Simulator.schedule = schedule


def builtin_doc(name: str) -> dict:
    text = resources.files("meshsdn").joinpath("scenarios", f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def builtin_scenario(name: str) -> Scenario:
    return scenario_from_mapping(builtin_doc(name), source=f"builtin:{name}")


def random_mesh_doc(rng: random.Random) -> dict:
    """A random connected mesh with 4-10 routers and 1-3 controllers."""
    n_wmr = rng.randint(4, 10)
    n_ctrl = rng.randint(1, min(3, n_wmr))
    wmr_ids = [f"wmr{i}" for i in range(1, n_wmr + 1)]

    links: list[tuple[str, str]] = []
    for i in range(1, n_wmr):
        links.append((wmr_ids[rng.randrange(i)], wmr_ids[i]))
    for i in range(n_wmr):
        for j in range(i + 1, n_wmr):
            pair = (wmr_ids[i], wmr_ids[j])
            if pair not in links and rng.random() < 0.25:
                links.append(pair)

    events = []
    flips = rng.randint(0, 4)
    for at in sorted(round(rng.uniform(20.0, QUIET_FROM), 1) for _ in range(flips)):
        a, b = rng.choice(links)
        events.append(
            {"at_s": at, "action": rng.choice(["link-down", "link-up"]), "link": [a, b]}
        )

    return {
        "name": "random-mesh",
        "duration_s": DURATION,
        "wmrs": [
            {"id": wmr_ids[i], "mesh_addr": f"10.0.0.{i + 1}"} for i in range(n_wmr)
        ],
        "controllers": [
            {
                "id": f"ctrl{j + 1}",
                "addr": f"10.0.255.{j + 1}",
                "attach": rng.choice(wmr_ids),
            }
            for j in range(n_ctrl)
        ],
        "links": [{"a": a, "b": b} for a, b in links],
        "events": events,
    }


def expected_master(sim, wmr_id: str) -> IPv4Address | None:
    """Oracle: the highest-priority controller physically reachable right now.

    Priority is plain lowest address, matching the default selector config.
    Reachability is BFS over Up links, independent of any protocol state.
    """
    component = sim.topo.component_of(wmr_id)
    reachable = [
        c.node.mesh_address for c in sim.controllers.values() if c.node.id in component
    ]
    return min(reachable) if reachable else None
