"""Payloads exchanged between switches and controllers over the control subnet.

All of these ride inside Basic-class packets, so they are routed by the
link-state tables and never touch the flow tables they manage.

Each payload is a named tuple: immutable, and cheap to define and to build.
Two payloads of different types with equal fields compare equal as tuples,
so receivers dispatch on ``type(payload)``, never on its value.
"""
from __future__ import annotations

from ipaddress import IPv4Address
from typing import NamedTuple

from .engine import SimTime
from .switch import RuleSpec


class ProbeRequest(NamedTuple):
    wmr: str
    token: int


class ProbeReply(NamedTuple):
    controller: IPv4Address
    token: int


class ConnectRequest(NamedTuple):
    wmr: str
    token: int


class ConnectAccept(NamedTuple):
    controller: IPv4Address
    token: int


class DisconnectNotice(NamedTuple):
    wmr: str


class KeepaliveRequest(NamedTuple):
    wmr: str
    token: int


class KeepaliveReply(NamedTuple):
    controller: IPv4Address
    token: int


class PacketInMsg(NamedTuple):
    """Miss report: enough header data for the controller to pick a path."""

    wmr: str
    src: IPv4Address
    dst: IPv4Address
    flow_id: str
    sent_at: SimTime


class FlowModMsg(NamedTuple):
    rule: RuleSpec


class FlushMsg(NamedTuple):
    origin_filter: str


class PingRequest(NamedTuple):
    probe_id: str
    seq: int
    sent_at: SimTime


class PingReply(NamedTuple):
    probe_id: str
    seq: int
    sent_at: SimTime
