"""The one transport under every runtime process (docs/runtime.md).

:func:`serve` is the server loop, :class:`LinkPool` the client side and
:class:`ProcessGroup` the child-process supervisor; node daemons,
controller replicas and their clients all run on these three.  Message
*semantics* stay with the callers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import selectors
import socket
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.framing import DEFAULT_TIMEOUT, FramedSocket, FramingError

#: Bound on reading the rest of a message once its connection is readable.
#: The loop is single-threaded, so this is how long one half-sent message
#: holds up every other client.  A constant, not an option: whoever
#: serves, it must stay well under the heartbeat's ``ping_timeout`` x
#: ``miss_threshold``, or a stalled stranger gets a healthy node fenced.
READ_TIMEOUT = 1.0

#: Seconds a killed or terminated child gets to be reaped.
JOIN_TIMEOUT = 10.0

Address = Tuple[str, int]
Reply = Tuple[int, bytes]


def serve(
    host: str,
    port: int,
    dispatch: Callable[[int, bytes, FramedSocket], Reply],
    running: Callable[[], bool],
    tick: float,
    ready: Optional[Callable[[int], None]] = None,
    idle: Optional[Callable[[], None]] = None,
    closed: Optional[Callable[[FramedSocket], None]] = None,
) -> None:
    """Bind, announce the port via ``ready`` and serve until told to stop.

    One request, one reply per connection: read a message, call
    ``dispatch(msg_type, payload, conn)`` (which must not raise), send
    the ``(type, payload)`` it returns.  A connection is dropped — closed
    and reported to ``closed(conn)``, so the caller can forget what it
    kept per connection — on EOF, an impossible length prefix, a read
    stalled past :data:`READ_TIMEOUT` or any ``OSError``; the others keep
    being served.  ``running()`` is checked after every reply and every
    round, ``tick`` bounds one ``select``, and ``idle()`` runs once per
    round whether or not it served anything (timers, background work).
    """
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sel = selectors.DefaultSelector()
    conns: List[FramedSocket] = []

    def drop(conn: FramedSocket) -> None:
        sel.unregister(conn.sock)
        conn.close()
        conns.remove(conn)
        if closed is not None:
            closed(conn)

    try:
        lsock.bind((host, port))
        lsock.listen(64)
        if ready is not None:
            ready(lsock.getsockname()[1])
        sel.register(lsock, selectors.EVENT_READ, None)
        while running():
            for key, _events in sel.select(timeout=tick):
                conn = key.data
                if conn is None:
                    accepted, _addr = lsock.accept()
                    conn = FramedSocket(accepted)
                    sel.register(accepted, selectors.EVENT_READ, conn)
                    conns.append(conn)
                    continue
                try:
                    conn.settimeout(READ_TIMEOUT)
                    msg_type, payload = conn.recv()
                except (FramingError, OSError):
                    drop(conn)
                    continue
                reply = dispatch(msg_type, payload, conn)
                try:
                    # sendall's timeout bounds the whole write, not a
                    # stall, and a reply can be megabytes.
                    conn.settimeout(DEFAULT_TIMEOUT)
                    conn.send(*reply)
                except OSError:
                    drop(conn)
                if not running():
                    break
            if idle is not None:
                idle()
    finally:
        for conn in conns:
            conn.close()
        sel.close()
        lsock.close()


class LinkPool:
    """Cached request/response links to peers numbered by address index.

    A link is dialled on first use and kept.  A ``FramingError`` or
    ``OSError`` on it — in :meth:`request` or in either half of
    :meth:`post` — closes and forgets it before the error propagates,
    so the next request re-dials (the peer may have restarted).
    ``on_dial(peer, link)`` runs on every fresh link before it is cached
    — the controller's ``MSG_CLAIM`` handshake; if it raises, the link is
    closed and the error propagates.
    """

    def __init__(
        self,
        addresses: Sequence[Sequence[object]] = (),
        timeout: float = DEFAULT_TIMEOUT,
        on_dial: Optional[Callable[[int, FramedSocket], None]] = None,
    ) -> None:
        self.addresses: List[Address] = []
        self.timeout = timeout
        self.on_dial = on_dial
        self._links: Dict[int, FramedSocket] = {}
        self.retarget(addresses)

    def dial(self, peer: int) -> FramedSocket:
        """The cached link to ``peer``, dialled now if there is none."""
        link = self._links.get(peer)
        if link is None:
            host, port = self.addresses[peer]
            link = FramedSocket.connect(host, port, timeout=self.timeout)
            if self.on_dial is not None:
                try:
                    self.on_dial(peer, link)
                except BaseException:
                    link.close()
                    raise
            self._links[peer] = link
        return link

    def dialled(self) -> List[int]:
        """Peers that have a cached link, ascending."""
        return sorted(self._links)

    def request(
        self,
        peer: int,
        msg_type: int,
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Reply:
        """One request/response with ``peer``, under the pool's timeout
        or, for this exchange only, ``timeout`` (liveness probes).

        The same exchange as ``post(peer, msg_type, payload)()``, made as
        one ``FramedSocket.request``.
        """
        link = self.dial(peer)
        with self._dropping(peer):
            link.settimeout(self.timeout if timeout is None else timeout)
            return link.request(msg_type, payload)

    def post(
        self, peer: int, msg_type: int, payload: bytes = b""
    ) -> Callable[[], Reply]:
        """Send one request to ``peer`` now; the returned ``collect()``
        reads its reply.

        The caller works while the peer does, then collects.  Replies
        come back in send order, so a link's collects must run in the
        order of its posts.  Either half that fails drops the link.
        """
        link = self.dial(peer)
        with self._dropping(peer):
            link.settimeout(self.timeout)
            link.send(msg_type, payload)

        def collect() -> Reply:
            with self._dropping(peer):
                return link.recv()

        return collect

    @contextlib.contextmanager
    def _dropping(self, peer: int) -> Iterator[None]:
        """Drop on error: a ``FramingError`` or ``OSError`` closes and
        forgets the link to ``peer``, then propagates."""
        try:
            yield
        except (FramingError, OSError):
            self.drop(peer)
            raise

    def drop(self, peer: int) -> None:
        """Close the cached link to ``peer``, if any."""
        link = self._links.pop(peer, None)
        if link is not None:
            link.close()

    def retarget(self, addresses: Sequence[Sequence[object]]) -> None:
        """Adopt a new address list; links to moved or removed peers drop."""
        moved = [(str(host), int(port)) for host, port in addresses]
        for peer in self.dialled():
            if peer >= len(moved) or moved[peer] != self.addresses[peer]:
                self.drop(peer)
        self.addresses = moved

    def close(self) -> None:
        """Drop every link (the peers keep running)."""
        for peer in self.dialled():
            self.drop(peer)


def _announce_and_serve(target: Callable[..., None], args: tuple, conn) -> None:
    """Child-process body: ``target`` announces its bound port through
    the ``ready`` callback it is handed."""

    def ready(port: int) -> None:
        conn.send(port)
        conn.close()

    target(*args, ready=ready)


class ProcessGroup:
    """Server child processes on loopback, one per slot.

    Subclasses define ``start()`` (what to spawn) and keep their own
    address books; the ready pipe, the SIGKILL drill, the
    terminate-then-kill shutdown and leak accounting live here.
    """

    def __init__(self, slots: int = 0) -> None:
        self.processes: List[Optional[multiprocessing.Process]] = (
            [None] * slots
        )

    def spawn(
        self,
        target: Callable[..., None],
        args: tuple,
        wait: float,
        slot: Optional[int] = None,
    ) -> int:
        """Run module-level ``target(*args, ready=...)`` in a child and
        return the port it announces within ``wait`` seconds.

        The child fills ``slot`` (a new last slot when ``None``).  One
        that does not announce — too slow, or dead — is killed and reaped
        before the error is raised, and takes no slot.
        """
        parent, child = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_announce_and_serve, args=(target, args, child),
            daemon=True,
        )
        process.start()
        child.close()
        try:
            if not parent.poll(wait):
                raise RuntimeError(
                    f"{target.__name__} did not announce its port "
                    f"within {wait} s"
                )
            port = int(parent.recv())
        except BaseException:
            process.kill()
            process.join(timeout=JOIN_TIMEOUT)
            raise
        finally:
            parent.close()
        if slot is None:
            self.processes.append(process)
        else:
            self.processes[slot] = process
        return port

    def kill(self, slot: int) -> None:
        """SIGKILL one child and reap it — the §7 drill (no goodbye)."""
        process = self.processes[slot]
        process.kill()
        process.join(timeout=JOIN_TIMEOUT)

    def stop(self) -> None:
        """Terminate every child still running, reap it, kill stragglers."""
        spawned = [p for p in self.processes if p is not None]
        for process in spawned:
            if process.is_alive():
                process.terminate()
        for process in spawned:
            process.join(timeout=JOIN_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join(timeout=JOIN_TIMEOUT)

    def leaked(self) -> List[int]:
        """Slots whose child process is still alive (should be [])."""
        return [
            slot for slot, process in enumerate(self.processes)
            if process is not None and process.is_alive()
        ]

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
