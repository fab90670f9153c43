"""The runtime's one transport: serve loop, link pool, process group.

Everything here runs over real loopback sockets.  The servers under test
are the shared loop with a toy ``dispatch`` and the two real users of it
(a ``NodeDaemon`` and a one-member ``ReplicaServer``), each on a thread.
"""

import contextlib
import multiprocessing
import queue
import socket
import struct
import threading
import time

import pytest

from repro.runtime import protocol, transport
from repro.runtime.daemon import NodeDaemon
from repro.runtime.framing import FramedSocket, FramingError, pack_message
from repro.runtime.protocol import (
    MSG_CLAIM,
    MSG_PING,
    MSG_QUERY,
    MSG_SHUTDOWN,
    MSG_UPDATE,
    RSP_ERR,
    RSP_OK,
    RSP_PONG,
    RSP_RESULT,
)
from repro.runtime.replicated import ReplicaServer, _free_ports

HOST = "127.0.0.1"


@contextlib.contextmanager
def on_thread(serve_forever):
    """Run ``serve_forever(ready=...)`` on a thread; yields the port and
    stops the server with MSG_SHUTDOWN."""
    ports = queue.Queue()
    thread = threading.Thread(
        target=serve_forever, kwargs={"ready": ports.put}, daemon=True
    )
    thread.start()
    port = ports.get(timeout=10.0)
    try:
        yield port
    finally:
        link = FramedSocket.connect(HOST, port, timeout=10.0)
        link.request(MSG_SHUTDOWN, b"")
        link.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def toy_server(ready):
    """The shared loop around an echo ``dispatch``."""
    running = [True]

    def dispatch(msg_type, payload, conn):
        if msg_type == MSG_SHUTDOWN:
            running[0] = False
        return RSP_OK, payload

    transport.serve(
        HOST, 0, dispatch, running=lambda: running[0], tick=0.05, ready=ready
    )


def replica_server(ready):
    (port,) = _free_ports(1)
    ReplicaServer(0, [(HOST, port)], [], num_nodes=2, seed=3).serve_forever(
        ready=ready
    )


#: server -> (serve_forever, a liveness probe, the reply type it gets).
SERVERS = {
    "toy": (toy_server, (MSG_PING, b"probe"), RSP_OK),
    "daemon": (
        lambda ready: NodeDaemon().serve_forever(ready=ready),
        (MSG_PING, protocol.encode_ping(7)), RSP_PONG,
    ),
    "replica": (
        replica_server,
        (MSG_QUERY, protocol.encode_json({"what": "status"})), RSP_RESULT,
    ),
}


def closed_by_server(raw):
    """The server hung up on ``raw`` (EOF, or a reset) within 5 s."""
    raw.settimeout(5.0)
    try:
        return raw.recv(1) == b""
    except ConnectionResetError:
        return True


@pytest.mark.parametrize("server", sorted(SERVERS))
def test_half_sent_message_cannot_freeze_a_server(server):
    serve_forever, probe, answer = SERVERS[server]
    with on_thread(serve_forever) as port:
        stalled = socket.create_connection((HOST, port))
        stalled.sendall(b"\x05")  # one byte of a length header, then silence
        healthy = FramedSocket.connect(HOST, port, timeout=2.0)
        try:
            started = time.monotonic()
            rsp_type, _rsp = healthy.request(*probe)
            assert rsp_type == answer
            assert time.monotonic() - started < 2.0
            assert closed_by_server(stalled)
        finally:
            healthy.close()
            stalled.close()


@pytest.fixture(scope="module")
def daemon_port():
    with on_thread(NodeDaemon().serve_forever) as port:
        yield port


#: hostile input -> (raw bytes, what the offending connection gets back:
#: a reply type, ``"closed"``, or ``None`` when the client hangs up first).
HOSTILE = {
    "impossible_length": (struct.pack("<I", 0xFFFFFFFF), "closed"),
    "zero_length": (struct.pack("<I", 0), "closed"),
    "truncated_body_then_close": (pack_message(MSG_PING, b"12345678")[:-3], None),
    "unknown_type": (pack_message(0x7F, b"?"), RSP_ERR),
    "fenced_type_before_snapshot": (
        pack_message(MSG_UPDATE, protocol.encode_updates([])), RSP_ERR
    ),
    "claim_that_is_not_json": (pack_message(MSG_CLAIM, b"\xff{"), RSP_ERR),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_bytes_leave_the_daemon_serving(daemon_port, case):
    data, expected = HOSTILE[case]
    raw = socket.create_connection((HOST, daemon_port))
    try:
        raw.sendall(data)
        if expected == "closed":
            assert closed_by_server(raw)
        elif expected is not None:
            rsp_type, rsp = FramedSocket(raw, timeout=5.0).recv()
            assert rsp_type == expected
            assert "error" in protocol.decode_json(rsp)
    finally:
        raw.close()
    fresh = FramedSocket.connect(HOST, daemon_port, timeout=5.0)
    try:
        assert fresh.request(MSG_PING, protocol.encode_ping(1)) == (
            RSP_PONG, protocol.encode_ping(1)
        )
    finally:
        fresh.close()


# ----------------------------------------------------------------------
# Link pool
# ----------------------------------------------------------------------


def test_link_pool_drops_a_dead_link_and_redials():
    dials = []
    with on_thread(toy_server) as port:
        pool = transport.LinkPool(
            [(HOST, port)], timeout=5.0,
            on_dial=lambda peer, link: dials.append(peer),
        )
        assert pool.request(0, MSG_PING, b"a") == (RSP_OK, b"a")
        assert pool.request(0, MSG_PING, b"b", timeout=1.0) == (RSP_OK, b"b")
        assert dials == [0] and pool.dialled() == [0]
        pool.dial(0).sock.shutdown(socket.SHUT_RDWR)  # the link dies
        with pytest.raises((FramingError, OSError)):
            pool.request(0, MSG_PING, b"c")
        assert pool.dialled() == []
        assert pool.request(0, MSG_PING, b"d") == (RSP_OK, b"d")
        assert dials == [0, 0]
        pool.close()
        assert pool.dialled() == []


def test_link_pool_posts_then_collects_in_post_order():
    with on_thread(toy_server) as a, on_thread(toy_server) as b:
        pool = transport.LinkPool([(HOST, a), (HOST, b)], timeout=5.0)
        first = pool.post(0, MSG_PING, b"first")
        second = pool.post(0, MSG_PING, b"second")
        other = pool.post(1, MSG_PING, b"other")
        assert other() == (RSP_OK, b"other")
        assert first() == (RSP_OK, b"first")
        assert second() == (RSP_OK, b"second")
        assert pool.post(0, MSG_PING, b"x")() == pool.request(
            0, MSG_PING, b"x"
        )
        pool.close()


def test_link_pool_drops_a_link_that_fails_either_half():
    with on_thread(toy_server) as port:
        pool = transport.LinkPool([(HOST, port)], timeout=5.0)
        collect = pool.post(0, MSG_PING, b"a")
        pool.dial(0).sock.close()  # dies before the reply is read
        with pytest.raises((FramingError, OSError)):
            collect()
        assert pool.dialled() == []
        pool.dial(0).sock.close()  # dies before the send
        with pytest.raises(OSError):
            pool.post(0, MSG_PING, b"b")
        assert pool.dialled() == []
        assert pool.post(0, MSG_PING, b"c")() == (RSP_OK, b"c")
        pool.close()


def test_link_pool_closes_a_link_its_dial_hook_rejects():
    rejected = []

    def refuse(peer, link):
        rejected.append(link)
        raise protocol.ProtocolError("claim refused")

    with on_thread(toy_server) as port:
        pool = transport.LinkPool([(HOST, port)], on_dial=refuse)
        with pytest.raises(protocol.ProtocolError):
            pool.request(0, MSG_PING, b"")
        assert pool.dialled() == [] and rejected[0].sock.fileno() == -1


def test_link_pool_retarget_drops_only_moved_and_removed_peers():
    with on_thread(toy_server) as a, on_thread(toy_server) as b:
        pool = transport.LinkPool([(HOST, a), (HOST, a), (HOST, a)])
        for peer in range(3):
            pool.dial(peer)
        kept = pool.dial(0)
        pool.retarget([(HOST, a), (HOST, b)])
        assert pool.dialled() == [0] and pool.dial(0) is kept
        assert pool.request(1, MSG_PING, b"moved") == (RSP_OK, b"moved")
        pool.close()


# ----------------------------------------------------------------------
# Process group
# ----------------------------------------------------------------------


def _never_announces(ready):
    time.sleep(60.0)


def test_a_child_that_never_announces_its_port_is_reaped():
    before = set(multiprocessing.active_children())
    group = transport.ProcessGroup()
    with pytest.raises(RuntimeError, match="did not announce"):
        group.spawn(_never_announces, (), wait=0.2)
    strays = set(multiprocessing.active_children()) - before
    assert not any(process.is_alive() for process in strays)
    assert group.leaked() == [] and group.processes == []
