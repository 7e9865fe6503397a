"""Node runtimes: every control-plane payload reaches a handler."""
import inspect

from meshsdn import control_plane as cp
from meshsdn.scenario import scenario_from_mapping
from meshsdn.olsr import HelloMsg
from meshsdn.simulation import Simulation
from meshsdn.switch import Packet

from support import TWO_ROUTERS

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
    # Record what reaches wmr2 over the link, in place of handling it.
    wmr2.on_packet = lambda packet, via: received.append((packet.payload, via))
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
