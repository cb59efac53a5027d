"""Setup-signaling traces: step counts, byte accounting, report counts."""

import hashlib
import itertools

import pytest

from d2dsim import cli
from d2dsim import signaling as sg
from d2dsim.signaling import (ContextRecord, Message, MessageKind,
                              context_gain_reports, full_csi_report_count,
                              run_multi_cell, run_single_cell)

PAIR_CONTEXT_BYTES = (2 * sg.POSITION_BYTES + 2 * sg.VELOCITY_BYTES
                      + 3 * sg.GAIN_REPORT_BYTES + sg.QOS_BYTES
                      + sg.PRIORITY_BYTES)  # 65


def kinds(trace):
    return [m.kind for m in trace.messages()]


def phases(trace):
    return [s.phase for s in trace.steps]


def test_context_record_sizes():
    end = ContextRecord(positions=1, velocities=1, gain_reports=1)
    assert end.size_bytes == 28
    pair = ContextRecord(positions=2, velocities=2, gain_reports=3,
                         qos=True, priority=True)
    assert pair.size_bytes == PAIR_CONTEXT_BYTES == 65
    assert pair.label() == "context(pos=2,vel=2,gain=3,qos,prio)"
    assert ContextRecord().size_bytes == 0


def test_message_sizes():
    sib = Message(MessageKind.SIB, "bs-1", "broadcast",
                  body_bytes=sg.SIB_BODY_BYTES)
    assert sib.size_bytes == sg.HEADER_BYTES + sg.SIB_BODY_BYTES == 32
    bare = Message(MessageKind.DATA_START, "ue-a", "ue-b")
    assert bare.size_bytes == sg.HEADER_BYTES
    assert "[32 B]" in sib.render()


def test_single_cell_accept_shape():
    trace = run_single_cell(True)
    assert trace.outcome == "accepted"
    assert phases(trace) == ["broadcast", "discovery", "discovery-response",
                             "service-request", "rrm-decision",
                             "resource-grant", "pair-config", "data-start"]
    assert trace.message_count == 6
    # 32 sib + 16 announce + 36 response + 73 request + 17 grant + 8 start
    assert trace.overhead_bytes == 32 + 16 + 36 + 73 + 17 + 8 == 182
    assert [s.index for s in trace.steps] == list(range(1, 9))
    assert kinds(trace)[-1] is MessageKind.DATA_START


def test_single_cell_reject_stops_at_decision():
    trace = run_single_cell(False)
    assert trace.outcome == "rejected"
    assert phases(trace)[-1] == "rrm-decision"
    assert len(trace.steps) == 5
    assert MessageKind.RESOURCE_GRANT not in kinds(trace)
    assert MessageKind.DATA_START not in kinds(trace)
    assert "bs-1 verdict: reject" in trace.steps[-1].notes


def test_single_cell_timeout():
    trace = run_single_cell(True, response_on_attempt=5, max_retries=3)
    assert trace.outcome == "timeout"
    announces = [m for m in trace.messages()
                 if m.kind is MessageKind.DISCOVERY_ANNOUNCE]
    assert len(announces) == 4  # first attempt + 3 retries
    assert [("retry" in m.note) for m in announces] == [False, True, True, True]
    assert MessageKind.DISCOVERY_RESPONSE not in kinds(trace)
    assert MessageKind.SERVICE_REQUEST not in kinds(trace)


def test_single_cell_retry_then_answer():
    trace = run_single_cell(True, response_on_attempt=3, max_retries=3)
    assert trace.outcome == "accepted"
    announces = [m for m in trace.messages()
                 if m.kind is MessageKind.DISCOVERY_ANNOUNCE]
    assert len(announces) == 3
    assert trace.overhead_bytes == 182 + 2 * 16  # two extra announces


def test_single_cell_out_of_coverage_forward():
    trace = run_single_cell(True, discoverer_covered=False)
    assert trace.outcome == "accepted"
    req = [m for m in trace.messages()
           if m.kind is MessageKind.SERVICE_REQUEST]
    assert [m.sender for m in req] == ["ue-b"]  # covered end carries it
    fwd = [m for m in trace.messages()
           if m.kind is MessageKind.CONFIG_EXCHANGE]
    assert len(fwd) == 1
    assert (fwd[0].sender, fwd[0].receiver) == ("ue-b", "ue-a")
    assert fwd[0].note == "sidelink forward"
    assert trace.overhead_bytes == 182 + 16


def test_single_cell_both_uncovered_invalid():
    with pytest.raises(ValueError, match="coverage"):
        run_single_cell(True, discoverer_covered=False,
                        discoveree_covered=False)


def test_single_cell_reconfigure_flag_in_grant():
    grant = [m for m in run_single_cell(True, reconfigure_cellular=True).messages()
             if m.kind is MessageKind.RESOURCE_GRANT][0]
    assert "reconfigure-cellular=true" in grant.note
    assert grant.size_bytes == sg.HEADER_BYTES + sg.GRANT_BODY_BYTES + sg.FLAG_BYTES


def test_multi_cell_accept_shape():
    trace = run_multi_cell(True, True)
    assert trace.outcome == "accepted"
    assert phases(trace) == ["broadcast", "discovery", "discovery-response",
                             "context-forward", "service-request",
                             "rrm-decision", "resource-grant",
                             "config-exchange", "pair-config", "data-start"]
    assert trace.message_count == 13
    assert trace.overhead_bytes == 385
    req = [m for m in trace.messages() if m.kind is MessageKind.SERVICE_REQUEST]
    assert {(m.sender, m.receiver) for m in req} == {("ue-a", "bs-1"),
                                                     ("ue-b", "bs-2")}


def test_multi_cell_single_reject_grants_once():
    trace = run_multi_cell(True, False)
    assert trace.outcome == "rejected"
    grants = [m for m in trace.messages()
              if m.kind is MessageKind.RESOURCE_GRANT]
    assert [(m.sender, m.receiver) for m in grants] == [("bs-1", "ue-a")]
    assert phases(trace)[-1] == "resource-grant"
    assert MessageKind.DATA_START not in kinds(trace)


def test_multi_cell_double_reject_no_grant_step():
    trace = run_multi_cell(False, False)
    assert trace.outcome == "rejected"
    assert phases(trace)[-1] == "rrm-decision"
    assert MessageKind.RESOURCE_GRANT not in kinds(trace)


def test_model_b_same_structure():
    a = run_single_cell(True, discovery_model="A")
    b = run_single_cell(True, discovery_model="B")
    assert phases(a) == phases(b)
    assert kinds(a) == kinds(b)
    assert a.overhead_bytes == b.overhead_bytes
    assert b.discovery_model == "B"
    assert all("model=B" in m.note for m in b.messages()
               if m.kind is MessageKind.DISCOVERY_ANNOUNCE)


@pytest.mark.parametrize("kwargs", [
    {"discovery_model": "C"},
    {"response_on_attempt": 0},
    {"max_retries": -1},
    {"max_retries": 101},
])
def test_validation_errors(kwargs):
    with pytest.raises(ValueError):
        run_single_cell(True, **kwargs)
    with pytest.raises(ValueError):
        run_multi_cell(True, True, **kwargs)


def test_context_gain_reports():
    assert context_gain_reports(run_single_cell(True)) == 3
    assert context_gain_reports(run_single_cell(False)) == 3
    assert context_gain_reports(
        run_single_cell(True, response_on_attempt=9, max_retries=2)) == 0
    assert context_gain_reports(run_multi_cell(True, True)) == 6


def test_full_csi_report_count():
    assert full_csi_report_count(10, 5) == 50 + 10 + 10
    assert full_csi_report_count(0, 0) == 0
    assert full_csi_report_count(7, 0) == 7
    with pytest.raises(ValueError, match="non-negative"):
        full_csi_report_count(-1, 3)


def test_to_text_stable_and_framed():
    trace = run_single_cell(True)
    text = trace.to_text()
    assert text == trace.to_text()  # deterministic
    lines = text.splitlines()
    assert lines[0] == "trace-version: 1"
    assert lines[1] == "topology: single-cell"
    assert lines[3] == "outcome: accepted"
    assert lines[-2] == "total-messages: 6"
    assert lines[-1] == "overhead-bytes: 182"
    assert text.endswith("\n")
    step_nums = [int(l.split()[1]) for l in lines if l.startswith("step ")]
    assert step_nums == list(range(1, 9))


def _setup_trace_texts(capsys):
    """Text of every setup trace the library and `trace-protocol` can build."""
    grid = itertools.product((1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4))
    for (attempt, retries), model in itertools.product(grid, ("A", "B")):
        kw = dict(discovery_model=model, response_on_attempt=attempt,
                  max_retries=retries)
        for verdict, reconfigure in itertools.product((True, False), repeat=2):
            for covered in ((True, True), (False, True), (True, False)):
                yield run_single_cell(verdict, discoverer_covered=covered[0],
                                      discoveree_covered=covered[1],
                                      reconfigure_cellular=reconfigure, **kw).to_text()
        for verdicts in itertools.product((True, False), repeat=2):
            yield run_multi_cell(*verdicts, **kw).to_text()
    for topology, outcome, model, retries, uncovered in itertools.product(
            ("single-cell", "multi-cell"), ("accepted", "rejected", "timeout"),
            ("A", "B"), (0, 1, 2, 3), (False, True)):
        if uncovered and topology == "multi-cell":
            continue
        argv = ["trace-protocol", "--topology", topology, "--outcome", outcome,
                "--model", model, "--retries", str(retries)]
        code = cli.main(argv + ["--out-of-coverage"] * uncovered)
        yield f"exit {code}\n" + capsys.readouterr().out


def test_every_setup_trace_matches_pinned_digest(capsys):
    """sha256 over 960 library traces and 72 `trace-protocol` outputs: any
    byte a refactor of the flows changes, in any note or step, shows here."""
    texts = list(_setup_trace_texts(capsys))
    assert len(texts) == 960 + 72
    digest = hashlib.sha256("\x00".join(texts).encode()).hexdigest()
    assert digest == (
        "f67e06b008222edaf1a0ec97d88820e34e801130c9d3d9622bd88ab3dcb6e4a4")
