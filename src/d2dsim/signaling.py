"""Connection-setup signaling for network-assisted D2D, as message traces.

Two topologies: both ends under one base station (eight numbered steps) or
split across two (ten steps).  Both open alike: a broadcast from each station,
then discovery.  A trace is a sequence of steps, each carrying zero or more
messages plus internal notes (RRC transitions, scheduler verdicts).  Traces
are deterministic and serialize to a stable text form so goldens can be
compared byte for byte.

Discovery runs model A ("here I am" announcements) or model B (solicitation);
the trace structure is identical, only the model annotation differs.  The
announcing end retries up to `max_retries` times after the first attempt and
times out afterwards.  Only an end with cell coverage may carry the service
request; a pair end without coverage learns its resource grant through a
single sidelink forward after the grant step.

Message sizing (bytes): 8 header on everything; SIB body 24; discovery body
8; resource grant 8 + 1 flag; config exchange body 8; data start is a bare
header.  Context payloads count 12 per position, 12 per velocity, 4 per gain
report, 4 QoS, 1 priority.  A service request carries the full pair context
(2 positions, 2 velocities, 3 gain reports: D2D link, own uplink, partner
uplink) — so each admitted pair costs its base station 3 gain reports, against
M*N + M + 2N for a full channel-knowledge scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "MessageKind",
    "ContextRecord",
    "Message",
    "TraceStep",
    "ProtocolTrace",
    "run_single_cell",
    "run_multi_cell",
    "context_gain_reports",
    "full_csi_report_count",
]

HEADER_BYTES = 8
SIB_BODY_BYTES = 24
DISCOVERY_BODY_BYTES = 8
GRANT_BODY_BYTES = 8
FLAG_BYTES = 1
CONFIG_BODY_BYTES = 8
POSITION_BYTES = 12
VELOCITY_BYTES = 12
GAIN_REPORT_BYTES = 4
QOS_BYTES = 4
PRIORITY_BYTES = 1
# Discovery retries a flow accepts: each attempt is one announce step.
MAX_RETRIES = 100


class MessageKind(str, Enum):
    SIB = "sib"
    DISCOVERY_ANNOUNCE = "discovery-announce"
    DISCOVERY_RESPONSE = "discovery-response"
    CONTEXT_FORWARD = "context-forward"
    SERVICE_REQUEST = "service-request"
    RESOURCE_GRANT = "resource-grant"
    CONFIG_EXCHANGE = "config-exchange"
    DATA_START = "data-start"


@dataclass(frozen=True)
class ContextRecord:
    """What a context payload carries, as element counts."""

    positions: int = 0
    velocities: int = 0
    gain_reports: int = 0
    qos: bool = False
    priority: bool = False

    @property
    def size_bytes(self) -> int:
        return (self.positions * POSITION_BYTES
                + self.velocities * VELOCITY_BYTES
                + self.gain_reports * GAIN_REPORT_BYTES
                + (QOS_BYTES if self.qos else 0)
                + (PRIORITY_BYTES if self.priority else 0))

    def label(self) -> str:
        parts = [f"pos={self.positions}", f"vel={self.velocities}", f"gain={self.gain_reports}"]
        if self.qos:
            parts.append("qos")
        if self.priority:
            parts.append("prio")
        return "context(" + ",".join(parts) + ")"


_END_CONTEXT = ContextRecord(positions=1, velocities=1, gain_reports=1)
_FORWARD_CONTEXT = ContextRecord(positions=1, velocities=1, gain_reports=1, qos=True, priority=True)
_PAIR_CONTEXT = ContextRecord(positions=2, velocities=2, gain_reports=3, qos=True, priority=True)


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    body_bytes: int = 0
    context: ContextRecord | None = None
    note: str = ""

    @property
    def size_bytes(self) -> int:
        ctx = self.context.size_bytes if self.context else 0
        return HEADER_BYTES + self.body_bytes + ctx

    def render(self) -> str:
        text = f"{self.kind.value} {self.sender} -> {self.receiver} [{self.size_bytes} B]"
        if self.context:
            text += " " + self.context.label()
        if self.note:
            text += " " + self.note
        return text


@dataclass(frozen=True)
class TraceStep:
    index: int
    phase: str
    messages: tuple[Message, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolTrace:
    topology: str  # "single-cell" | "multi-cell"
    discovery_model: str
    outcome: str  # "accepted" | "rejected" | "timeout"
    steps: tuple[TraceStep, ...]

    def messages(self) -> list[Message]:
        return [m for s in self.steps for m in s.messages]

    @property
    def message_count(self) -> int:
        return len(self.messages())

    @property
    def overhead_bytes(self) -> int:
        return sum(m.size_bytes for m in self.messages())

    def to_text(self) -> str:
        lines = [
            "trace-version: 1",
            f"topology: {self.topology}",
            f"discovery-model: {self.discovery_model}",
            f"outcome: {self.outcome}",
        ]
        for step in self.steps:
            lines.append(f"step {step.index} {step.phase}")
            for note in step.notes:
                lines.append(f"  * {note}")
            for msg in step.messages:
                lines.append(f"  {msg.render()}")
        lines.append(f"total-messages: {self.message_count}")
        lines.append(f"overhead-bytes: {self.overhead_bytes}")
        return "\n".join(lines) + "\n"


def context_gain_reports(trace: ProtocolTrace) -> int:
    """Gain reports delivered to base stations by this pair's setup.

    Only service requests reach a scheduler, so the count is 3 per request —
    independent of how many cellular users the sector hosts.
    """
    return sum(m.context.gain_reports for m in trace.messages()
               if m.kind is MessageKind.SERVICE_REQUEST and m.context)


def full_csi_report_count(n_cellular: int, n_pairs: int) -> int:
    """Gain values a full-knowledge scheduler would need per sector:
    every cross link (M*N), every cellular uplink (M), the D2D links (N)
    and the D2D-to-base links (N)."""
    if n_cellular < 0 or n_pairs < 0:
        raise ValueError("counts must be non-negative")
    return n_cellular * n_pairs + n_cellular + 2 * n_pairs


def _opening(stations, model: str, response_on_attempt: int, max_retries: int) -> list:
    """Check the discovery arguments, then return the steps both flows start
    with, as (phase, messages, notes): a broadcast from each station, one
    announce per attempt made, and the response if it arrives within
    `1 + max_retries` attempts."""
    if model not in ("A", "B"):
        raise ValueError("discovery_model must be 'A' or 'B'")
    if response_on_attempt < 1:
        raise ValueError("response_on_attempt must be >= 1")
    if not 0 <= max_retries <= MAX_RETRIES:
        raise ValueError(f"max_retries must be >= 0 and <= {MAX_RETRIES}")
    note = "model=" + model
    steps = [("broadcast", [Message(MessageKind.SIB, bs, "broadcast", body_bytes=SIB_BODY_BYTES)
                            for bs in stations], ())]
    for a in range(min(response_on_attempt, 1 + max_retries)):
        steps.append(("discovery", [Message(
            MessageKind.DISCOVERY_ANNOUNCE, "ue-a", "ue-b",
            body_bytes=DISCOVERY_BODY_BYTES, note=note + (" retry" if a else ""))], ()))
    if response_on_attempt <= 1 + max_retries:
        steps.append(("discovery-response", [Message(
            MessageKind.DISCOVERY_RESPONSE, "ue-b", "ue-a", context=_END_CONTEXT, note=note)], ()))
    return steps


def _trace(topology: str, model: str, outcome: str, steps: list) -> ProtocolTrace:
    """Number (phase, messages, notes) steps from 1 into a trace."""
    return ProtocolTrace(topology, model, outcome, tuple([
        TraceStep(i, phase, tuple(messages), tuple(notes))
        for i, (phase, messages, notes) in enumerate(steps, 1)]))


def _grant(bs: str, receiver: str, reconfigure: bool) -> Message:
    return Message(MessageKind.RESOURCE_GRANT, bs, receiver,
                   body_bytes=GRANT_BODY_BYTES + FLAG_BYTES,
                   note=f"reconfigure-cellular={str(reconfigure).lower()}")


def run_single_cell(
    verdict: bool,
    *,
    discovery_model: str = "A",
    response_on_attempt: int = 1,
    max_retries: int = 3,
    discoverer_covered: bool = True,
    discoveree_covered: bool = True,
    reconfigure_cellular: bool = False,
) -> ProtocolTrace:
    """Setup flow when one base station governs both pair ends.

    Accepted runs span eight steps: broadcast, discovery, response, service
    request, scheduler decision, resource grant, pair configuration, data
    start.  A rejection ends the trace right after the decision step.
    """
    steps = _opening(("bs-1",), discovery_model, response_on_attempt, max_retries)
    if not (discoverer_covered or discoveree_covered):
        raise ValueError("at least one pair end needs cell coverage")
    requester, partner = ("ue-a", "ue-b") if discoverer_covered else ("ue-b", "ue-a")
    if steps[-1][0] != "discovery-response":
        return _trace("single-cell", discovery_model, "timeout", steps)

    steps += [
        ("service-request",
         [Message(MessageKind.SERVICE_REQUEST, requester, "bs-1", context=_PAIR_CONTEXT)],
         (f"{requester} rrc idle -> connected",)),
        ("rrm-decision", (), ("bs-1 verdict: " + ("accept" if verdict else "reject"),)),
    ]
    if not verdict:
        return _trace("single-cell", discovery_model, "rejected", steps)

    steps.append(("resource-grant", [_grant("bs-1", "d2d-pair", reconfigure_cellular)], ()))
    if discoverer_covered and discoveree_covered:
        steps.append(("pair-config", (), ("both ends apply grant",)))
    else:
        steps.append(("pair-config", [Message(
            MessageKind.CONFIG_EXCHANGE, requester, partner,
            body_bytes=CONFIG_BODY_BYTES, note="sidelink forward")], ()))
    steps.append(("data-start", [Message(MessageKind.DATA_START, "ue-a", "ue-b")], ()))
    return _trace("single-cell", discovery_model, "accepted", steps)


def run_multi_cell(
    verdict_a: bool,
    verdict_b: bool,
    *,
    discovery_model: str = "A",
    response_on_attempt: int = 1,
    max_retries: int = 3,
) -> ProtocolTrace:
    """Setup flow when the pair ends sit under different base stations.

    Accepted runs span ten steps: both broadcasts, discovery, response,
    sidelink context forward, both service requests, both decisions, both
    grants, grant exchange over the sidelink, pair configuration, and
    bidirectional data start.  Any rejection stops the flow after the grant
    step (only accepting stations transmit one).
    """
    steps = _opening(("bs-1", "bs-2"), discovery_model, response_on_attempt, max_retries)
    ends = (("ue-a", "ue-b", "bs-1", verdict_a), ("ue-b", "ue-a", "bs-2", verdict_b))
    if steps[-1][0] != "discovery-response":
        return _trace("multi-cell", discovery_model, "timeout", steps)

    steps += [
        ("context-forward", [Message(MessageKind.CONTEXT_FORWARD, "ue-a", "ue-b",
                                     context=_FORWARD_CONTEXT, note="sidelink")], ()),
        ("service-request",
         [Message(MessageKind.SERVICE_REQUEST, ue, bs, context=_PAIR_CONTEXT)
          for ue, _, bs, _ in ends],
         [f"{ue} rrc idle -> connected" for ue, _, _, _ in ends]),
        ("rrm-decision", (),
         [f"{bs} verdict: " + ("accept" if ok else "reject") for _, _, bs, ok in ends]),
    ]
    grants = [_grant(bs, ue, False) for ue, _, bs, ok in ends if ok]
    if grants:
        steps.append(("resource-grant", grants, ()))
    if not (verdict_a and verdict_b):
        return _trace("multi-cell", discovery_model, "rejected", steps)

    steps += [
        ("config-exchange",
         [Message(MessageKind.CONFIG_EXCHANGE, ue, peer, body_bytes=CONFIG_BODY_BYTES,
                  note="sidelink") for ue, peer, _, _ in ends], ()),
        ("pair-config", (), ("both ends apply exchanged grants",)),
        ("data-start", [Message(MessageKind.DATA_START, ue, peer) for ue, peer, _, _ in ends], ()),
    ]
    return _trace("multi-cell", discovery_model, "accepted", steps)
