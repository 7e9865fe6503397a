"""Node runtimes: every control-plane payload reaches a handler."""
import inspect

from meshsdn import control_plane as cp
from meshsdn.scenario import scenario_from_mapping
from meshsdn.simulation import Simulation

TINY = {
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

PINGS = {cp.PingRequest, cp.PingReply}
ADDRESSED_TO = {
    "router": {cp.ProbeReply, cp.ConnectAccept, cp.KeepaliveReply, cp.FlowModMsg, cp.FlushMsg}
    | PINGS,
    "controller": {
        cp.ProbeRequest,
        cp.ConnectRequest,
        cp.DisconnectNotice,
        cp.KeepaliveRequest,
        cp.PacketInMsg,
    }
    | PINGS,
    "host": PINGS,
}


def test_every_payload_has_a_handler_at_the_node_it_is_addressed_to():
    sim = Simulation(scenario_from_mapping(TINY, source="t"))
    tables = {
        "router": sim.wmrs["wmr1"].handlers,
        "controller": sim.controllers["ctrl1"].handlers,
        "host": sim.hosts["h1"].handlers,
    }
    payloads = {
        cls for _, cls in inspect.getmembers(cp, inspect.isclass) if cls.__module__ == cp.__name__
    }
    assert len(payloads) == 12
    # A payload without a handler would vanish silently on delivery.
    assert set().union(*tables.values()) == payloads
    assert {kind: set(table) for kind, table in tables.items()} == ADDRESSED_TO
