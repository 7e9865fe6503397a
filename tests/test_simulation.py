"""Node runtimes, transport and scenario events."""
import copy
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsdn import control_plane as cp
from meshsdn.engine import Simulator
from meshsdn.scenario import scenario_from_mapping
from meshsdn.olsr import HelloMsg
from meshsdn.simulation import NodeRuntime, Simulation, run_scenario
from meshsdn.switch import Packet

from support import TWO_ROUTERS, EventBudgetExceeded, event_budget, random_mesh_doc

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
    sim = Simulation(scenario_from_mapping(TWO_ROUTERS, source="t"))
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



def test_link_down_drops_what_is_in_flight_and_link_up_carries_again():
    sim = Simulation(scenario_from_mapping(TWO_ROUTERS, source="t"))
    wmr1, wmr2 = sim.wmrs["wmr1"], sim.wmrs["wmr2"]
    link = sim.topo.link_between("wmr1", "wmr2")
    delay = link.delay_us
    received = []
    # Record what wmr2's on_packet hands on, in place of handling it.  The
    # messages below travel over ``link`` alone, so that is the link of each.
    wmr2._handle_hello = lambda msg: received.append((msg, link))
    wmr2._forward = lambda packet: received.append((packet.payload, link))
    hello = HelloMsg("wmr1", wmr1.address)
    probe = cp.ProbeRequest("wmr1", 1)
    late_probe = cp.ProbeRequest("wmr1", 2)
    late_hello = HelloMsg("wmr1", wmr1.address)

    def send_control(msg) -> None:
        sim.transmit(link, "wmr1", Packet(wmr1.address, wmr2.address, "control", msg))

    wmr1._olsr_broadcast([link], hello)
    send_control(probe)
    engine = sim.engine
    engine.schedule(delay // 2, lambda: sim.topo.set_link_state("wmr1", "wmr2", False))
    engine.schedule(delay // 2 + 1, lambda: send_control(late_probe))  # sent while down
    engine.schedule(delay + 10, lambda: sim.topo.set_link_state("wmr1", "wmr2", True))
    engine.schedule(delay + 20, lambda: wmr1._olsr_broadcast([link], late_hello))
    engine.run_until(3 * delay)

    # Equal Hellos compare equal, so tell the messages apart by identity.
    ours = {id(hello): "hello", id(probe): "probe", id(late_probe): "late probe"}
    ours[id(late_hello)] = "late hello"
    assert [(ours[id(msg)], via) for msg, via in received if id(msg) in ours] == [
        ("late hello", link)
    ]


@pytest.mark.parametrize("node, router", [("h1", "wmr1"), ("ctrl1", "wmr2")])
def test_a_host_or_controller_drops_what_its_link_loses_in_flight(node, router):
    sim = Simulation(scenario_from_mapping(TWO_ROUTERS, source="t"))
    runtime = {**sim.hosts, **sim.controllers}[node]
    link = sim.topo.link_between(router, node)
    delay = link.delay_us
    dispatched = []
    runtime._dispatch = lambda packet: dispatched.append(packet.payload)
    lost, carried = cp.PingReply("p", 1, 0), cp.PingReply("p", 2, 0)

    def send(msg) -> None:
        sim.transmit(link, router, Packet(sim.wmrs[router].address, runtime.address, "ping", msg))

    send(lost)
    engine = sim.engine
    engine.schedule(delay // 2, lambda: sim.topo.set_link_state(router, node, False))
    engine.schedule(delay + 10, lambda: sim.topo.set_link_state(router, node, True))
    engine.schedule(delay + 20, lambda: send(carried))
    engine.run_until(3 * delay)
    assert [msg for msg in dispatched if msg in (lost, carried)] == [carried]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relaying_skips_only_copies_the_receiver_would_drop(seed):
    """A relay leaves out a copy whose receiver already holds its sequence
    number or is its origin.  Sending every copy instead, as the reference
    broadcast does, logs the same bytes, link flips included, and takes at
    least as many events."""
    doc = random_mesh_doc(random.Random(seed))
    scenario = scenario_from_mapping(doc, source=f"mesh{seed}")
    elided = Simulation(scenario, seed)
    log = elided.run().log.to_ndjson()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NodeRuntime, "_olsr_relay", NodeRuntime._olsr_broadcast)
        reference = Simulation(scenario, seed)
        reference_log = reference.run().log.to_ndjson()
    assert log == reference_log
    assert elided.engine._seq <= reference.engine._seq


def test_stop_flow_and_start_flow_events_pause_and_restart_a_flow():
    # A second host behind wmr2, so that the flow is SDN traffic the
    # controller routes; it runs at the full 10 Mbit/s by 17 s.
    doc = copy.deepcopy(TWO_ROUTERS)
    doc["wmrs"][1]["access"] = [{"subnet": "192.168.2.0/24", "addr": "192.168.2.1"}]
    doc["hosts"].append({"id": "h2", "addr": "192.168.2.10", "attach": "wmr2"})
    doc["duration_s"] = 35.0
    doc["flows"] = [{"id": "flow1", "src": "h1", "dst": "h2", "start_s": 5.0}]
    doc["events"] = [
        {"at_s": 20.0, "action": "stop-flow", "flow": "flow1"},
        {"at_s": 30.0, "action": "start-flow", "flow": "flow1"},
    ]
    result = run_scenario(scenario_from_mapping(doc, source="t"))
    samples = {
        r.time: r.data["bps"]
        for r in result.log.records
        if r.kind == "ThroughputSample" and r.data["flow"] == "flow1"
    }
    times = sorted(samples)
    assert samples[19_900_000] == 10_000_000.0
    # Stopped: no sample from the stop up to the restart.
    assert not [t for t in times if 20_000_000 <= t < 30_000_000]
    # Restarted: it climbs again from 0 over its 1 s loss-recovery ramp.
    assert [samples[30_000_000 + 100_000 * k] for k in range(12)] == [
        min(k, 10) * 1_000_000.0 for k in range(12)
    ]
    assert times[-1] == 35_000_000


def test_event_budget_stops_a_run_that_schedules_too_many_events():
    scenario = scenario_from_mapping(TWO_ROUTERS, source="t")
    sim = Simulation(scenario)
    sim.run()
    events = sim.engine._seq
    schedule = Simulator.schedule
    with pytest.raises(EventBudgetExceeded), event_budget(events - 1):
        run_scenario(scenario)
    assert Simulator.schedule is schedule
    with event_budget(events):
        run_scenario(scenario)
