"""The non-blocking peer loop: one selector over framed sockets.

Both ends of shard-per-core serving (:mod:`repro.service.workers`) run the
same single-threaded loop -- the front-end over its TCP clients and worker
pipes, each shard worker over its front-end pipe, its listener and its
direct connections -- so the loop is written once, here.  A *peer* is
anything with ``sock``, ``frames`` (a
:class:`~repro.service.protocol.FrameSplitter`), ``outbuf`` and ``alive``;
:class:`Peer` is the plain one.

The rules the loop keeps for every peer:

- a frame is handed to the socket directly; only what the socket does not
  take is buffered in ``outbuf`` for ``EVENT_WRITE`` to drain, so a peer
  that stops reading costs memory, never a blocked loop;
- ``EVENT_WRITE`` is (un)registered only when "``outbuf`` holds unsent
  bytes" flips -- steady-state traffic never touches the selector;
- a readable socket is read once per turn (at most ``RECV_SIZE``) and every
  whole frame in the chunk is handled; EOF, a socket error or a
  :class:`~repro.service.protocol.ProtocolError` from the handler drops
  the peer the way its owner said to (``drop``).
"""

from __future__ import annotations

import selectors
import socket

from repro.service import protocol
from repro.service.protocol import FrameSplitter


class Peer:
    """One accepted connection (or one end of a socketpair)."""

    __slots__ = ("sock", "frames", "outbuf", "server_id", "alive")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.frames = FrameSplitter()
        self.outbuf = bytearray()
        self.server_id: str | None = None
        self.alive = True


class PeerLoop:
    """A selector plus the send/flush/read routines of its peers."""

    def __init__(self):
        self.selector = selectors.DefaultSelector()

    def add_listener(self, listener: socket.socket, on_accept) -> None:
        """``on_accept()`` runs whenever ``listener`` has connections waiting."""
        self.selector.register(
            listener, selectors.EVENT_READ, (None, on_accept, None)
        )

    def add_peer(self, peer, on_frame, drop) -> None:
        """``on_frame(peer, frame)`` per whole frame; ``drop(peer)`` is how
        this kind of peer dies."""
        self.selector.register(
            peer.sock, selectors.EVENT_READ, (peer, on_frame, drop)
        )

    def accept(self, listener: socket.socket, on_frame, drop):
        """Accept everything waiting on a non-blocking listener; yields each
        new :class:`Peer`, already registered."""
        while True:
            try:
                sock, __ = listener.accept()
            except OSError:  # nothing (more) waiting, or the listener is gone
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = Peer(sock)
            self.add_peer(peer, on_frame, drop)
            yield peer

    def close_sock(self, sock: socket.socket) -> None:
        try:
            self.selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.selector.close()
        except OSError:
            pass

    def poll(self, timeout: float | None) -> bool:
        """One turn: wait for readiness, serve every ready socket.  False
        once the selector is gone (closed under a loop that outlived it)."""
        try:
            events = self.selector.select(timeout)
        except OSError:
            return False
        for key, mask in events:
            peer, handler, drop = key.data
            if peer is None:
                handler()
            else:
                self._on_peer_event(mask, peer, handler, drop)
        return True

    def _watch_writable(self, peer, on: bool) -> None:
        """(Un)register EVENT_WRITE for a peer's socket; called only when
        "``peer.outbuf`` holds unsent bytes" flips."""
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
        try:
            data = self.selector.get_key(peer.sock).data
            self.selector.modify(peer.sock, events, data)
        except (KeyError, ValueError):
            pass

    def send(self, peer, raw: bytes) -> bool:
        """Hand a frame straight to the socket; what it does not take is
        buffered (behind anything already waiting) for EVENT_WRITE to
        drain.  False on a fatal socket error."""
        if peer.outbuf:
            peer.outbuf += raw
            return True
        try:
            sent = peer.sock.send(raw)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            return False
        if sent < len(raw):
            peer.outbuf += memoryview(raw)[sent:]
            self._watch_writable(peer, True)
        return True

    def _flush(self, peer) -> bool:
        """EVENT_WRITE: drain as much of the unsent tail as the socket
        accepts; False on a fatal socket error."""
        outbuf = peer.outbuf
        try:
            while outbuf:
                del outbuf[:peer.sock.send(outbuf)]
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            return False
        self._watch_writable(peer, False)
        return True

    def _on_peer_event(self, mask: int, peer, on_frame, drop) -> None:
        """A peer's socket is ready: drain its unsent bytes, read one
        bounded chunk, handle every whole frame in it."""
        if not peer.alive:
            return
        if mask & selectors.EVENT_WRITE and not self._flush(peer):
            drop(peer)
            return
        if not mask & selectors.EVENT_READ:
            return
        try:
            data = peer.sock.recv(protocol.RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            drop(peer)
            return
        frames = peer.frames
        frames.feed(data)
        try:
            while (frame := frames.next_frame()) is not None:
                on_frame(peer, frame)
                if not peer.alive:
                    return
        except protocol.ProtocolError:
            drop(peer)
