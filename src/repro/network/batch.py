"""Per-tick wire batching: one crypto pass and one syscall burst.

With the daemon muxing N sessions onto one port, the per-datagram costs —
a seal, a flight note, a ``sendto`` — repeat N times per reactor tick.
This module collects them instead:

* :class:`WireBatcher` queues every session's outgoing datagrams during a
  tick and flushes them together: one
  :func:`~repro.crypto.session.seal_many` call that seals each in turn,
  then one transmit burst
  (``sendmmsg`` on Linux via :mod:`repro.network.sysbatch`, a
  per-datagram ``sendmsg``/``sendto`` elsewhere, or the endpoint's own
  ``transmit_to`` in the simulator).
* :class:`RxBatcher` stages inbound datagrams (post-framing, pre-unseal)
  and flushes them through one :func:`~repro.crypto.session.unseal_many`
  call, then notifies each endpoint once per flush instead of once per
  datagram.
* :class:`SyscallCounter` counts actual socket-API invocations so the
  benchmark's syscalls-per-packet figure is measured, not estimated.

Flush ordering and timing are the caller's contract: both batchers must
be flushed before simulated time advances past the tick that enqueued
the work (the event loop's flush hooks guarantee this), which keeps the
wire byte-identical to the unbatched path — nonces and timestamps are
assigned at enqueue, and the datagrams still reach the link at the same
instant they otherwise would.

Queued send entries are tuples (hot path):
``(endpoint, nonce, text, header, addr, now, meta, seq, ts, tsr,
wire_len)``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.crypto.session import Message, seal_many, unseal_many
from repro.obs import registry as _obs
from repro.obs.registry import MetricsRegistry


class SyscallCounter:
    """Counts socket-API invocations by name (``sendmmsg``, ``recvfrom``…).

    One instance per socket owner; the wire benchmark divides the total
    by the datagram count for its syscalls-per-packet gate.
    """

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}

    def note(self, name: str, n: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + n

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self.calls)


class WireBatcher:
    """Queue of sealed-pending datagrams, drained once per tick.

    ``transmit_many`` (optional) receives the whole flush as a list of
    ``(header, raw, addr, endpoint, now)`` tuples and returns the indexes
    that failed to send (for flight-recorder ``send_err`` fates); without
    it, each entry goes out via ``endpoint.transmit_to``. Entry ordering
    is preserved end-to-end — a failed entry is skipped, never allowed to
    drop or reorder the rest (the sysbatch senders share this contract).
    """

    def __init__(
        self,
        transmit_many: Callable[[list], list[int]] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._pending: list[tuple] = []
        self._transmit_many = transmit_many
        if registry is not None:
            self._flushes = registry.counter("wire.tx_flushes")
            self._datagrams = registry.counter("wire.tx_datagrams")
            self._batch_hist = registry.histogram("wire.tx_batch", unit="datagrams")
        else:
            self._flushes = self._datagrams = None
            self._batch_hist = None

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, entry: tuple) -> None:
        self._pending.append(entry)

    def flush(self) -> int:
        """Seal and transmit everything queued; returns the count."""
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        n = len(pending)
        sealed = seal_many(
            [(e[0].session, Message(e[1], e[2])) for e in pending]
        )
        obs_on = _obs._enabled
        sends: list[tuple] = []
        for e, raw in zip(pending, sealed):
            endpoint = e[0]
            if obs_on and endpoint.flight is not None:
                endpoint.flight.note_send(
                    e[5], endpoint.dir_out, e[7], e[10], e[8], e[9], e[6], n
                )
            sends.append((e[3], raw, e[4], endpoint, e[5]))
        if self._transmit_many is not None:
            failed = self._transmit_many(sends)
        else:
            failed = ()
            for header, raw, addr, endpoint, now in sends:
                out = raw if header is None else header + raw
                endpoint.transmit_to(out, addr, now)
        if failed:
            for idx in failed:
                header, raw, addr, endpoint, now = sends[idx]
                if obs_on and endpoint.flight is not None:
                    endpoint.flight.note_drop(
                        now, endpoint.dir_out, "send_err",
                        seq=pending[idx][7], wire_len=pending[idx][10],
                    )
        if self._flushes is not None:
            self._flushes.value += 1
            self._datagrams.value += n
            self._batch_hist.record(float(n))
        return n


class RxBatcher:
    """Inbound staging area: unseal a whole burst in one kernel pass.

    Endpoints with ``rx_stage`` set divert each datagram body here
    instead of unsealing inline; :meth:`flush` runs the batched unseal
    and hands every result back through ``endpoint.handle_unsealed``,
    then notifies each endpoint *once* (coalesced pump kick). Staged
    buffers may be views into reusable receive slots — the caller must
    flush before refilling them (everything retained downstream is
    materialized during the flush).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._staged: list[tuple] = []
        if registry is not None:
            self._flushes = registry.counter("wire.rx_flushes")
            self._datagrams = registry.counter("wire.rx_datagrams")
            self._batch_hist = registry.histogram("wire.rx_batch", unit="datagrams")
        else:
            self._flushes = self._datagrams = None
            self._batch_hist = None

    def __len__(self) -> int:
        return len(self._staged)

    def stage(self, endpoint: Any, body: Any, addr: Any, now: float) -> None:
        self._staged.append((endpoint, body, addr, now))

    def flush(self) -> int:
        """Unseal and deliver everything staged; returns the count."""
        staged = self._staged
        if not staged:
            return 0
        self._staged = []
        results = unseal_many([(e[0].session, e[1]) for e in staged])
        accepted: dict[Any, int] = {}
        last_now: dict[Any, float] = {}
        for (endpoint, body, addr, now), res in zip(staged, results):
            if endpoint.handle_unsealed(res, body, addr, now, notify=False):
                accepted[endpoint] = accepted.get(endpoint, 0) + 1
                last_now[endpoint] = now
        for endpoint, count in accepted.items():
            endpoint.notify_datagrams(last_now[endpoint], count)
        if self._flushes is not None:
            self._flushes.value += 1
            self._datagrams.value += len(staged)
            self._batch_hist.record(float(len(staged)))
        return len(staged)
