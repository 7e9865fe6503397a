"""Event queue ordering, cancellation, and RNG stream stability."""
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsdn.eftm import MasterSelector
from meshsdn.engine import Event, Simulator, fmt_time, to_us
from meshsdn.simulation import run_scenario

from support import builtin_scenario, pending, to_seconds


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run_until(100)
    assert fired == ["a", "b", "c"]
    assert sim.now() == 100


def test_equal_times_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in "abcdef":
        sim.schedule(50, lambda t=tag: fired.append(t))
    sim.run_until(50)
    assert fired == list("abcdef")


def test_zero_delay_runs_after_current_event():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(0, lambda: fired.append("inner"))
        fired.append("outer")

    sim.schedule(5, outer)
    sim.run_until(5)
    assert fired == ["outer", "inner"]
    assert sim.now() == 5


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, lambda: fired.append("x"))
    sim.schedule(5, handle.cancel)
    sim.run_until(20)
    assert fired == []
    assert pending(sim) == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_run_until_cannot_go_backwards():
    sim = Simulator()
    sim.run_until(10)
    with pytest.raises(ValueError):
        sim.run_until(9)


def test_run_until_boundary_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append("edge"))
    sim.run_until(10)
    assert fired == ["edge"]


def test_clock_advances_only_through_events():
    sim = Simulator()
    seen = []
    sim.schedule(7, lambda: seen.append(sim.now()))
    sim.schedule(19, lambda: seen.append(sim.now()))
    sim.run_until(50)
    assert seen == [7, 19]


def test_node_rng_streams_are_stable_across_processes():
    # Frozen from an independent interpreter run; str seeding goes through
    # sha512, so these do not depend on PYTHONHASHSEED.
    sim = Simulator(seed=0)
    rng = sim.node_rng("wmr1")
    assert [rng.random() for _ in range(3)] == [
        0.00032595476115304667,
        0.14352717894702238,
        0.737201773763698,
    ]
    assert Simulator(seed=7).node_rng("ctrl2").uniform(-0.1, 0.1) == pytest.approx(
        -0.05984999515904724, abs=0
    )


def test_node_rng_streams_are_independent():
    sim = Simulator(seed=0)
    a = sim.node_rng("wmr1")
    assert a is sim.node_rng("wmr1")
    b = sim.node_rng("wmr2")
    assert a is not b
    # Draining one stream must not perturb the other.
    [a.random() for _ in range(100)]
    assert b.random() == random.Random("0/wmr2").random()


LANE = 5

# One step: schedule an event (its delay, and the delays of the events it
# schedules when it fires), cancel an earlier one, or run the clock forward.
lane_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.sampled_from((0, 1, 3, LANE, LANE, LANE, 9)),
            st.lists(st.sampled_from((0, 2, LANE, LANE, 7)), max_size=2),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("run"), st.integers(0, 12)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(lane_steps)
def test_lane_fires_every_event_in_heap_order(steps):
    """A simulator with a FIFO lane fires the same events, at the same
    instants and in the same order, as one with the heap alone."""

    def replay(sim):
        fired, handles = [], []

        def fire(label, follow_ups):
            fired.append((sim.now(), label))
            for i, delay in enumerate(follow_ups):
                handles.append(sim.schedule(delay, partial(fire, f"{label}.{i}", ())))

        for n, step in enumerate(steps):
            if step[0] == "schedule":
                handles.append(sim.schedule(step[1], partial(fire, str(n), step[2])))
            elif step[0] == "cancel" and handles:
                handles[step[1] % len(handles)].cancel()
            elif step[0] == "run":
                sim.run_until(sim.now() + step[1])
                fired.append(("pending", pending(sim)))
        sim.run_until(sim.now() + 100)
        return fired, sim.now(), pending(sim)

    assert replay(Simulator(lane_delay=LANE)) == replay(Simulator())


def test_event_handle_fields():
    sim = Simulator()
    fired = []
    handle = sim.schedule(42, lambda: fired.append("x"), target="wmr1", kind="hello")
    assert isinstance(handle, Event)
    assert pending(sim) == 1
    handle.cancel()
    assert pending(sim) == 0
    sim.run_until(100)
    assert fired == []


def test_event_handle_contract():
    # schedule builds every handle and sets both of its slots itself.
    sim = Simulator()
    fired = []
    callback = partial(fired.append, "early")
    early = sim.schedule(10, callback)
    late = sim.schedule(20, partial(fired.append, "late"))
    assert type(early) is Event and type(late) is Event
    assert early.callback is callback and early.cancelled is False
    sim.run_until(10)
    assert fired == ["early"]
    early.cancel()  # after firing: nothing changes
    late.cancel()  # before firing: it never fires
    assert pending(sim) == 0
    sim.run_until(30)
    assert fired == ["early"]


def test_pending_leaves_cancelled_events_out():
    sim = Simulator(lane_delay=5)
    handles = [sim.schedule(delay, lambda: None) for delay in (5, 5, 7, 9)]
    handles[0].cancel()
    handles[2].cancel()
    assert pending(sim) == 2


def test_a_class_level_cancel_sees_every_keepalive_reply(monkeypatch):
    # The tracer counts cancels by replacing Event.cancel on the class, so
    # the method must stay in the class's own dict and every handle the
    # engine builds must reach it.
    assert "cancel" in vars(Event)
    cancelled, awaited = {}, []  # cancelled: every event, kept alive by id
    cancel = Event.cancel

    def counted_cancel(event):
        cancelled[id(event)] = event
        cancel(event)

    reply = MasterSelector.on_keepalive_reply

    def on_keepalive_reply(selector, msg):
        handle = selector._keepalive_waits.get(msg.token)
        if handle is not None:
            awaited.append(handle)
        reply(selector, msg)

    monkeypatch.setattr(Event, "cancel", counted_cancel)
    monkeypatch.setattr(MasterSelector, "on_keepalive_reply", on_keepalive_reply)
    run_scenario(builtin_scenario("merge"), 0)
    assert awaited
    assert all(id(handle) in cancelled for handle in awaited)


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_fmt_time_is_exact_decimal_microseconds(t):
    text = fmt_time(t)
    whole, frac = text.lstrip("-").split(".")
    assert len(frac) == 6
    rebuilt = int(whole) * 1_000_000 + int(frac)
    assert rebuilt == abs(t)
    assert text.startswith("-") == (t < 0)


def test_fmt_time_examples():
    assert fmt_time(0) == "0.000000"
    assert fmt_time(12_345_678) == "12.345678"
    assert fmt_time(-1_500) == "-0.001500"


@given(st.integers(min_value=0, max_value=10**10))
def test_to_us_round_trips_through_seconds(t):
    assert to_us(to_seconds(t)) == t
