"""The ingress daemon's forward path: post, handle locally, collect.

``NodeDaemon._on_route`` posts every handler's ``FORWARD`` (ascending
handler order, the order fault verdicts are drawn in), handles its own
frames while the handlers work, then collects the replies.  These tests
drive socket-less daemons (``tests.conftest.wire_up``) through the one
peer seam, ``_peer_post``, and pin what the reordering must not change:
every outcome, charge and frame counter, pinned as a digest captured
from the daemon that handled its own frames first and forwarded one
handler at a time.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.chaos.transport import DELAY, DROP, DUPLICATE
from repro.epc import fastpath
from repro.epc.packets import PROTO_UDP, FlowTuple
from repro.runtime.framing import FramingError, pack_frame_list
from repro.runtime.protocol import (
    MSG_FLUSH, MSG_FORWARD, MSG_ROUTE, MSG_STATUS, RSP_ERR, RSP_FORWARD, RSP_ROUTE,
    STATUS_DELIVERED, decode_outcomes, encode_outcome_columns,
)
from repro.runtime.shadow import compare_frames
from tests.conftest import wire_up
from tests.test_fastpath import build_gateway, make_frame

INGRESS = 1

#: SHA-256 of :func:`fault_scenario`'s outcomes, charges and frame
#: counters, captured from the daemon that handled its own frames first
#: and forwarded one handler at a time.
SCENARIO_DIGEST = (
    "9fc0eef45cdefbda2d6f477af6ac978be92095f7f19a78f88b3a76670ecd850f"
)


def three_daemons():
    gateway, flows, gen = build_gateway(seed=31, flows=240, num_nodes=3)
    controller, daemons = wire_up(gateway)
    return gateway, flows, gen, controller, daemons


def frame_counters(daemon):
    return {
        name: count for name, count in daemon.registry.counters().items()
        if name.startswith("runtime.frames.")
    }


def route(daemon, frames):
    rsp_type, body = daemon._dispatch(MSG_ROUTE, pack_frame_list(frames))
    assert rsp_type == RSP_ROUTE, body
    return decode_outcomes(body)


def fault_scenario():
    """Five ``ROUTE`` batches at the middle of three daemons — a dropped,
    a delayed and a duplicated forward, a handler whose link fails on
    send and one whose link fails on the reply — then a flush.

    Returns ``(digest, events)``: the digest covers every outcome, charge
    and frame counter; ``events`` lists, per batch, the ingress's posts
    and its local ``_handle_frames`` call in the order they happened.
    """
    gateway, flows, gen, controller, daemons = three_daemons()
    ingress = daemons[INGRESS]
    stranger = FlowTuple(0x0B000001, 0x0B000002, PROTO_UDP, 7, 9)
    events, broken = [], {}
    healthy_post = ingress._peer_post
    healthy_handle = ingress._handle_frames

    def post(node_id, msg_type, payload=b""):
        events[-1].append(("post", node_id, msg_type))
        if broken.get(node_id) == "send":
            raise OSError("connection refused")
        collect = healthy_post(node_id, msg_type, payload)
        if broken.get(node_id) == "reply":
            def collect():
                raise FramingError("connection closed mid-message")
        return collect

    def handle_frames(parsed, rows, hashed=None):
        events[-1].append(("handle", INGRESS, MSG_ROUTE))
        return healthy_handle(parsed, rows, hashed)

    ingress._peer_post = post
    ingress._handle_frames = handle_frames
    plans = [
        ({DROP: {"forward": 1}}, {}),
        ({DELAY: {"forward": 1}}, {}),
        ({DUPLICATE: {"forward": 1}}, {}),
        ({}, {2: "send"}),
        ({}, {0: "reply"}),
    ]
    batches = []
    for index, (faults, links) in enumerate(plans):
        if faults:
            controller.arm_faults(INGRESS, faults)
        broken.clear()
        broken.update(links)
        frames = gen.packet_stream(flows, 60)
        frames[index:index] = [b"", make_frame(stranger)]
        events.append([])
        batches.append([
            [o.status, o.handler, o.teid, o.out.hex() if o.out else None]
            for o in route(ingress, frames)
        ])
    broken.clear()
    events.append([])
    assert ingress._dispatch(MSG_FLUSH, b"")[0] != RSP_ERR
    state = {
        "outcomes": batches,
        "charges": [sorted(d.ledger.bytes_charged.items()) for d in daemons],
        "counters": [frame_counters(d) for d in daemons],
    }
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()
    return digest, events


def test_the_ingress_posts_every_forward_before_its_own_frames():
    _digest, events = fault_scenario()
    fwd = lambda node: ("post", node, MSG_FORWARD)  # noqa: E731
    handle = ("handle", INGRESS, MSG_ROUTE)
    assert events == [
        [fwd(2), handle],                  # 0 dropped: never posted
        [fwd(2), handle],                  # 0 delayed until the flush
        [fwd(0), fwd(2), handle, fwd(0)],  # 0 duplicated on collect
        [fwd(0), fwd(2), handle],          # 2's send fails
        [fwd(0), fwd(2), handle],          # 0's reply fails
        [fwd(0)],                          # the flush delivers 0's batch
    ]


def test_outcomes_charges_and_counters_are_unchanged_by_the_overlap():
    digest, _events = fault_scenario()
    assert digest == SCENARIO_DIGEST


def test_a_failed_duplicate_does_not_hide_the_delivery():
    """The duplicate ``FORWARD`` fails after the first was delivered and
    charged: the frames are delivered, not ``NODE_DOWN``."""
    gateway, flows, gen, controller, daemons = three_daemons()
    ingress = daemons[INGRESS]
    healthy = ingress._peer_post
    posts = Counter()

    def post(node_id, msg_type, payload=b""):
        posts[node_id] += 1
        if posts[node_id] == 2:
            raise OSError("connection reset by peer")
        return healthy(node_id, msg_type, payload)

    ingress._peer_post = post
    controller.arm_faults(INGRESS, {DUPLICATE: {"forward": 1}})
    frames = gen.packet_stream(flows, 60)
    outcomes = route(ingress, frames)
    assert posts == {0: 2, 2: 1}
    reference = [gateway.process_downstream(f, INGRESS) for f in frames]
    summary = compare_frames(reference, outcomes)
    assert summary["divergences"] == 0 and summary["byte_identical"]
    assert all(o.status == STATUS_DELIVERED for o in outcomes)
    charges = {}
    for daemon in daemons:
        charges.update(daemon.ledger.bytes_charged)
    assert charges == gateway.stats.bytes_charged


def test_a_failed_local_batch_still_collects_every_forward():
    """A posted forward's reply is read even when the ingress's own rows
    raise, so no link is left holding an unread reply."""
    _gateway, flows, gen, _controller, daemons = three_daemons()
    ingress = daemons[INGRESS]
    healthy = ingress._peer_post
    posted, collected = [], []

    def post(node_id, msg_type, payload=b""):
        posted.append(node_id)
        reply = healthy(node_id, msg_type, payload)

        def collect():
            collected.append(node_id)
            return reply()

        return collect

    def handle_frames(parsed, rows, hashed=None):
        raise ValueError("teids[0] is outside 0..0xFFFFFFFF")

    ingress._peer_post = post
    ingress._handle_frames = handle_frames
    frames = pack_frame_list(gen.packet_stream(flows, 60))
    rsp_type, body = ingress._dispatch(MSG_ROUTE, frames)
    assert rsp_type == RSP_ERR and b"outside" in body
    assert posted == collected == [0, 2]


def test_a_forward_reply_of_the_wrong_length_is_refused():
    _gateway, flows, gen, _controller, daemons = three_daemons()
    ingress = daemons[INGRESS]
    short = encode_outcome_columns([], [], [], [])
    ingress._peer_post = lambda node_id, msg_type, payload=b"": (
        lambda: (RSP_FORWARD, short)
    )
    frames = pack_frame_list(gen.packet_stream(flows, 60))
    rsp_type, body = ingress._dispatch(MSG_ROUTE, frames)
    assert rsp_type == RSP_ERR and b"0 outcomes for" in body


@pytest.mark.parametrize("msg_type", [MSG_ROUTE, MSG_FORWARD])
def test_trailing_bytes_after_the_last_frame_are_refused(msg_type):
    _gateway, flows, gen, _controller, daemons = three_daemons()
    ingress = daemons[INGRESS]
    healthy = ingress._peer_post
    posts = []

    def post(node_id, msg_type, payload=b""):
        posts.append(node_id)
        return healthy(node_id, msg_type, payload)

    ingress._peer_post = post
    def state():
        return [(d.ledger.bytes_charged, frame_counters(d)) for d in daemons]

    before = state()
    payload = pack_frame_list(gen.packet_stream(flows, 40)) + b"\x00"
    rsp_type, body = ingress._dispatch(msg_type, payload)
    assert rsp_type == RSP_ERR and b"trailing bytes" in body
    assert posts == []
    assert state() == before


@pytest.mark.parametrize("count", [10, 300], ids=["loop", "columns"])
def test_status_charges_are_the_per_frame_loops_in_first_charge_order(count):
    """The daemon charges through a ``ChargingLedger``: its charges equal
    the per-frame dict loop it replaced, in first-charge order, below and
    above ``LOOP_BELOW`` frames, and so does ``STATUS`` (keys sorted)."""
    _gateway, flows, gen, _controller, daemons = three_daemons()
    daemon = daemons[INGRESS]
    frames = gen.packet_stream(flows, count) + [b"", make_frame(flows[0])]
    parsed = fastpath.parse_frames(frames)
    rows = np.arange(len(frames))
    expected = {}
    for key, size, malformed in zip(
        parsed.keys.tolist(), parsed.l3_len.tolist(), parsed.malformed
    ):
        teid = None if malformed else daemon.node.fib.lookup(key)
        if teid is not None:
            expected[teid] = expected.get(teid, 0) + size
    daemon._handle_frames(parsed, rows)
    daemon._handle_frames(parsed, rows[::-1])
    for teid, size in reversed(expected.items()):
        expected[teid] += size
    assert len(expected) > 1
    assert list(daemon.ledger.bytes_charged.items()) == list(expected.items())
    status = json.loads(daemon._dispatch(MSG_STATUS, b"")[1])
    assert status["charges"] == {str(t): b for t, b in expected.items()}
