"""Batched and allocation-free socket syscalls for the wire hot path.

On Linux, ``sendmmsg``/``recvmmsg`` move a whole tick's datagrams per
kernel crossing; everywhere else (or with ``REPRO_WIRE_PORTABLE=1`` set)
the same classes degrade to one ``sendmsg``/``sendto`` or
``recvfrom_into`` per datagram — still allocation-free on receive, still
scatter-gather on framed sends, just not syscall-batched.

Zero-copy discipline:

* **Send** — each datagram's mux header and sealed body go out as two
  iovec entries pointing straight into the Python ``bytes`` objects; the
  bytes are never concatenated. The caller's ``sends`` list keeps them
  alive across the call.
* **Receive** — ``recvmmsg`` scatters into preallocated per-slot
  bytearrays and :meth:`BatchReceiver.recv_many` returns ``memoryview``
  slices of them. The views are valid **only until the next
  ``recv_many`` call**; callers must finish (or materialize) a burst
  before asking for the next one. The portable fallback receives into
  one reused buffer and returns exact-size ``bytes`` copies instead,
  since a single slot cannot back two live datagrams.

Every kernel crossing is tallied in the owner's
:class:`~repro.network.batch.SyscallCounter`, which is how the benchmark
measures (not estimates) syscalls per packet.
"""

from __future__ import annotations

import ctypes
import errno
import os
import socket
import sys
from typing import Any

from repro.network.batch import SyscallCounter

#: Environment gate forcing the portable (non-ctypes) code paths.
PORTABLE_ENV = "REPRO_WIRE_PORTABLE"

#: Datagrams per ``sendmmsg`` call; a longer flush goes out in chunks.
SEND_BATCH = 64

#: Datagrams per ``recvmmsg`` intake burst, and the size of each
#: preallocated receive slot (the largest UDP payload).
RECV_BATCH = 32
RECV_SLOT_BYTES = 65536

_MSG_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0x40)


class _Iovec(ctypes.Structure):
    _fields_ = [
        ("iov_base", ctypes.c_void_p),
        ("iov_len", ctypes.c_size_t),
    ]


class _SockaddrIn(ctypes.Structure):
    _fields_ = [
        ("sin_family", ctypes.c_uint16),
        ("sin_port", ctypes.c_uint16),  # network byte order
        ("sin_addr", ctypes.c_uint8 * 4),  # network byte order
        ("sin_zero", ctypes.c_uint8 * 8),
    ]


class _Msghdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint32),
        ("msg_iov", ctypes.POINTER(_Iovec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _Mmsghdr(ctypes.Structure):
    _fields_ = [
        ("msg_hdr", _Msghdr),
        ("msg_len", ctypes.c_uint),
    ]


def _load_libc():
    if sys.platform != "linux":
        return None, None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        sendmmsg = libc.sendmmsg
        recvmmsg = libc.recvmmsg
    except (OSError, AttributeError):
        return None, None
    sendmmsg.argtypes = [
        ctypes.c_int, ctypes.c_void_p, ctypes.c_uint, ctypes.c_int,
    ]
    sendmmsg.restype = ctypes.c_int
    recvmmsg.argtypes = [
        ctypes.c_int, ctypes.c_void_p, ctypes.c_uint, ctypes.c_int,
        ctypes.c_void_p,
    ]
    recvmmsg.restype = ctypes.c_int
    return sendmmsg, recvmmsg


_sendmmsg, _recvmmsg = _load_libc()


def available() -> bool:
    """True when the mmsg fast path is usable (Linux, not env-gated)."""
    return (
        _sendmmsg is not None
        and _recvmmsg is not None
        and not os.environ.get(PORTABLE_ENV)
    )


def _fill_sockaddr(sa: _SockaddrIn, addr: Any) -> bool:
    """Pack ``(host, port)`` into ``sa``; False if not a dotted-quad v4."""
    try:
        packed = socket.inet_aton(addr[0])
        port = addr[1]
    except (OSError, TypeError, IndexError):
        return False
    sa.sin_family = socket.AF_INET
    sa.sin_port = socket.htons(port)
    ctypes.memmove(sa.sin_addr, packed, 4)
    return True


def _addr_of(buf: bytes) -> int:
    """The C address of a bytes object's payload (valid while referenced)."""
    return ctypes.cast(ctypes.c_char_p(buf), ctypes.c_void_p).value


class BatchSender:
    """Drains a :class:`~repro.network.batch.WireBatcher` flush through
    the fewest syscalls the platform allows.

    ``send_many`` takes the batcher's ``(header, raw, addr, endpoint,
    now)`` tuples and returns the indexes that failed, preserving order:
    a failed entry is skipped, never allowed to drop or delay the ones
    behind it (partial ``sendmmsg`` results advance past the sent prefix
    and retry the remainder).
    """

    def __init__(
        self,
        sock: socket.socket,
        counter: SyscallCounter | None = None,
    ) -> None:
        self._sock = sock
        self.counter = counter if counter is not None else SyscallCounter()
        self._fast = available()
        if self._fast:
            self._hdrs = (_Mmsghdr * SEND_BATCH)()
            self._iovs = (_Iovec * (2 * SEND_BATCH))()
            self._addrs = (_SockaddrIn * SEND_BATCH)()
            for i in range(SEND_BATCH):
                hdr = self._hdrs[i].msg_hdr
                hdr.msg_name = ctypes.cast(
                    ctypes.byref(self._addrs[i]), ctypes.c_void_p
                )
                hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
                hdr.msg_iov = ctypes.cast(
                    ctypes.byref(self._iovs, 2 * i * ctypes.sizeof(_Iovec)),
                    ctypes.POINTER(_Iovec),
                )

    def send_many(self, sends: list) -> list[int]:
        """Transmit a flush; returns indexes whose send failed."""
        if not self._fast:
            return self._send_many_portable(sends)
        failed: list[int] = []
        base = 0
        while base < len(sends):
            chunk = sends[base : base + SEND_BATCH]
            self._send_chunk(chunk, base, failed)
            base += len(chunk)
        return failed

    def _send_chunk(self, chunk: list, base: int, failed: list[int]) -> None:
        iov = self._iovs
        idxs: list[int] = []  # mmsg slot -> chunk index
        m = 0
        for i, (header, raw, addr, _endpoint, _now) in enumerate(chunk):
            if not _fill_sockaddr(self._addrs[m], addr):
                # Non-dotted-quad destination (hostname): let sendto
                # resolve it instead of occupying an mmsg slot.
                if self._sendto_one(header, raw, addr):
                    failed.append(base + i)
                continue
            hdr = self._hdrs[m].msg_hdr
            j = 2 * m
            if header is not None:
                iov[j].iov_base = _addr_of(header)
                iov[j].iov_len = len(header)
                iov[j + 1].iov_base = _addr_of(raw)
                iov[j + 1].iov_len = len(raw)
                hdr.msg_iovlen = 2
            else:
                iov[j].iov_base = _addr_of(raw)
                iov[j].iov_len = len(raw)
                hdr.msg_iovlen = 1
            idxs.append(i)
            m += 1
        off = 0
        while off < m:
            r = _sendmmsg(
                self._sock.fileno(),
                ctypes.byref(self._hdrs, off * ctypes.sizeof(_Mmsghdr)),
                m - off,
                _MSG_DONTWAIT,
            )
            self.counter.note("sendmmsg")
            if r > 0:
                off += r
                continue
            err = ctypes.get_errno()
            if r < 0 and err == errno.EINTR:
                continue
            # The datagram at the head of the remainder failed (EAGAIN,
            # unreachable, …). UDP loss semantics: record it, skip it,
            # keep the rest of the batch moving in order.
            failed.append(base + idxs[off])
            off += 1

    def _sendto_one(self, header, raw, addr) -> bool:
        """Single fallback send; returns True on failure."""
        try:
            if header is not None:
                self._sock.sendmsg([header, raw], (), 0, addr)
                self.counter.note("sendmsg")
            else:
                self._sock.sendto(raw, addr)
                self.counter.note("sendto")
            return False
        except OSError:
            return True

    def _send_many_portable(self, sends: list) -> list[int]:
        failed: list[int] = []
        for i, (header, raw, addr, _endpoint, _now) in enumerate(sends):
            if self._sendto_one(header, raw, addr):
                failed.append(i)
        return failed


class BatchReceiver:
    """Allocation-free datagram intake: many datagrams per syscall.

    ``recv_many`` returns ``[(body, addr), ...]`` — ``memoryview`` slices
    of preallocated slots on the mmsg path (valid until the next call),
    exact-size ``bytes`` on the portable path. An empty list means the
    socket is drained.
    """

    def __init__(
        self,
        sock: socket.socket,
        counter: SyscallCounter | None = None,
    ) -> None:
        self._sock = sock
        self.counter = counter if counter is not None else SyscallCounter()
        self._fast = available()
        if self._fast:
            self._slots = [
                bytearray(RECV_SLOT_BYTES) for _ in range(RECV_BATCH)
            ]
            self._views = [memoryview(s) for s in self._slots]
            self._hdrs = (_Mmsghdr * RECV_BATCH)()
            self._iovs = (_Iovec * RECV_BATCH)()
            self._addrs = (_SockaddrIn * RECV_BATCH)()
            for i, slot in enumerate(self._slots):
                buf = (ctypes.c_char * RECV_SLOT_BYTES).from_buffer(slot)
                self._iovs[i].iov_base = ctypes.cast(buf, ctypes.c_void_p)
                self._iovs[i].iov_len = RECV_SLOT_BYTES
                hdr = self._hdrs[i].msg_hdr
                hdr.msg_name = ctypes.cast(
                    ctypes.byref(self._addrs[i]), ctypes.c_void_p
                )
                hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
                hdr.msg_iov = ctypes.cast(
                    ctypes.byref(self._iovs, i * ctypes.sizeof(_Iovec)),
                    ctypes.POINTER(_Iovec),
                )
                hdr.msg_iovlen = 1
        else:
            # One reused intake buffer; recv_many copies out exact sizes.
            self._buf = bytearray(RECV_SLOT_BYTES)

    def recv_many(self) -> list[tuple]:
        """One intake burst; [] when the socket has nothing waiting."""
        if not self._fast:
            return self._recv_many_portable()
        n = RECV_BATCH
        for i in range(n):
            # The kernel overwrites namelen with the actual address size;
            # reset it so a short previous answer can't truncate this one.
            self._hdrs[i].msg_hdr.msg_namelen = ctypes.sizeof(_SockaddrIn)
        while True:
            r = _recvmmsg(
                self._sock.fileno(), ctypes.byref(self._hdrs), n,
                _MSG_DONTWAIT, None,
            )
            self.counter.note("recvmmsg")
            if r >= 0:
                break
            err = ctypes.get_errno()
            if err == errno.EINTR:
                continue
            return []  # EAGAIN or transient socket error: drained
        out = []
        for i in range(r):
            length = self._hdrs[i].msg_len
            sa = self._addrs[i]
            addr = (
                socket.inet_ntoa(bytes(sa.sin_addr)),
                socket.ntohs(sa.sin_port),
            )
            out.append((self._views[i][:length], addr))
        return out

    def _recv_many_portable(self) -> list[tuple]:
        out = []
        buf = self._buf
        for _ in range(RECV_BATCH):
            try:
                length, addr = self._sock.recvfrom_into(buf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break
            self.counter.note("recvfrom")
            out.append((bytes(buf[:length]), addr))
        return out
