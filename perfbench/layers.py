"""Outside-in layer tracing: timed wrappers around each layer's entry points.

The benchmark never edits the program to measure it. Instead
:class:`LayerTracer` replaces the public functions listed in
:data:`TARGETS` with wrappers that push a frame on a self-time stack, so
every layer's *self* time is its calls' duration minus the time spent in
other wrapped layers beneath it. Re-entering the layer already on top of
the stack (``seal_many`` calling ``Session.encrypt``) extends the current
frame rather than opening a new call, so ``calls`` counts entries into a
layer from outside it.

Wrappers must be installed before a world is built: the program binds
several entry points at construction time (flush hooks, ``on_input``,
the mux port handler), and only instances built afterwards see them.

Each frame also becomes a span — id, the id of the span that called it,
layer, function, session label, start and duration — kept in memory and
written as Chrome ``trace_event`` JSON by :meth:`LayerTracer.export_chrome`.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns

#: Spans kept in memory per run; later spans are counted, not stored.
MAX_SPANS = 100_000


def _plain_bytes(args, result):
    return {"bytes": len(args[1])}


def _seal_one(args, result):
    return {"bytes": len(args[1].text)}


def _seal_many(args, result):
    return {"bytes": sum(len(message.text) for _, message in args[0])}


def _unseal_one(args, result):
    return {"bytes": len(result.text)}


def _unseal_many(args, result):
    counts = {"bytes": 0, "failed": 0}
    for item in result:
        if hasattr(item, "text"):
            counts["bytes"] += len(item.text)
        else:
            counts["failed"] += 1
    return counts


def _diff_bytes(args, result):
    return {"bytes": len(result)}


def _flushed(args, result):
    return {"flushes": 1 if result else 0, "flushed": result}


def _role(args):
    return args[0].role


def _daemon(args):
    return "daemon"


#: (layer, module, class or None for a module attribute, function names,
#: counter function, label function). A counter function maps
#: ``(args, result)`` to counts added under ``<layer>.<name>``; a call that
#: raises counts ``<layer>.failed`` instead. A label function names the
#: session a call belongs to (unlabelled calls inherit the label of the
#: frame beneath them).
TARGETS = (
    ("crypto.seal", "repro.crypto.session", "Session", ("encrypt",),
     _seal_one, None),
    ("crypto.seal", "repro.network.batch", None, ("seal_many",),
     _seal_many, None),
    ("crypto.unseal", "repro.crypto.session", "Session", ("decrypt",),
     _unseal_one, None),
    ("crypto.unseal", "repro.network.batch", None, ("unseal_many",),
     _unseal_many, None),
    ("terminal.emulate", "repro.terminal.complete", "Complete", ("act",),
     _plain_bytes, None),
    ("terminal.apply", "repro.terminal.complete", "Complete",
     ("apply_diff",), _plain_bytes, None),
    ("terminal.diff", "repro.terminal.complete", "Complete", ("diff_from",),
     _diff_bytes, None),
    ("terminal.snapshot", "repro.terminal.complete", "Complete", ("copy",),
     None, None),
    ("transport.send", "repro.transport.sender", "TransportSender",
     ("tick",), None, None),
    ("transport.recv", "repro.transport.transport", "Transport", ("tick",),
     None, None),
    ("runtime.kick", "repro.runtime.pump", "TransportPump", ("kick",),
     None, _role),
    ("network.tx", "repro.network.interface", "DatagramEndpoint",
     ("send",), None, None),
    ("network.tx", "repro.network.batch", "WireBatcher", ("flush",),
     _flushed, _daemon),
    ("network.rx", "repro.network.interface", "DatagramEndpoint",
     ("handle_unsealed",), None, None),
    ("network.rx", "repro.network.batch", "RxBatcher", ("flush",),
     _flushed, _daemon),
    # The daemon's mux dispatch is the daemon's receive entry, so its time
    # is charged to network.rx; only its call count is reported apart.
    ("network.rx", "repro.daemon.mux", "SessionMux", ("dispatch",),
     lambda args, result: {"dispatch_calls": 1}, _daemon),
    ("prediction", "repro.prediction.engine", "PredictionEngine",
     ("new_user_byte", "report_frame", "apply"), None, None),
    ("obs", "repro.obs.keystroke", "KeystrokeLatencyTracker",
     ("stamp", "on_echo_ack"), None, None),
    ("obs", "repro.obs.causal", "CausalTracer",
     ("on_stamp", "on_send", "on_recv", "on_frame"), None, None),
    ("obs", "repro.obs.flight", "FlightRecorder",
     ("note_send", "note_recv", "note_drop", "note_instruction"), None, None),
    ("obs", "repro.obs.trace", "SpanTracer",
     ("span", "record_span", "span_at", "instant"), None, None),
    ("session", "repro.session.core", "ServerCore",
     ("host_write", "handle_user_events"), None, _role),
    ("session", "repro.session.core", "ClientCore", ("type_bytes",),
     None, _role),
    ("input", "repro.input.userstream", "UserStream",
     ("diff_from", "apply_diff"), None, None),
    ("simnet", "repro.simnet.host", "SimNetwork", ("send_datagram",),
     None, None),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))


class LayerTracer:
    """Self-time accounting and span capture for the wrapped layers."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        #: layer -> [calls, self_ns]
        self.totals = {layer: [0, 0] for layer in LAYERS}
        #: "<layer>.<name>" -> count, from the counter functions.
        self.counts: dict[str, int] = {}
        #: Prefix for span labels (e.g. the persona a session replays).
        self.scope = ""
        #: (id, parent id or 0, layer, function, label, start ns, duration ns)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_id = 1
        self._max_spans = max_spans
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper; a repeat call does nothing."""
        if self._saved:
            return
        for layer, module_name, class_name, names, count, label in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for name in names:
                original = vars(owner)[name]
                fn_name = f"{class_name or module_name}.{name}"
                setattr(owner, name, self._wrap(layer, fn_name, original, count, label))
                self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, layer, fn_name, fn, count, label):
        stack = self._stack
        totals = self.totals[layer]
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if label is not None:
                tag = tracer.scope + label(args)
            else:
                tag = stack[-1][2] if stack else tracer.scope + "loop"
            span_id = tracer._next_id
            tracer._next_id += 1
            # [layer, time in wrapped calls beneath, label, span id]
            frame = [layer, 0, tag, span_id]
            parent = stack[-1][3] if stack else 0
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                key = f"{layer}.failed"
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                totals[0] += 1
                totals[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < tracer._max_spans:
                    tracer.spans.append(
                        (span_id, parent, layer, fn_name, tag, t0, dur))
                else:
                    tracer.spans_dropped += 1
            if count is not None:
                counts = tracer.counts
                for name, n in count(args, result).items():
                    key = f"{layer}.{name}"
                    counts[key] = counts.get(key, 0) + n
            return result

        return wrapper

    # -- reading --------------------------------------------------------

    def reset(self) -> None:
        """Zero the totals and counts (spans are kept)."""
        for pair in self.totals.values():
            pair[0] = pair[1] = 0
        self.counts.clear()

    def export_chrome(self, path: str, process: str) -> int:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        tids: dict[str, int] = {}
        events = []
        for span_id, parent, layer, fn_name, tag, t0, dur in self.spans:
            tid = tids.setdefault(tag, len(tids) + 1)
            events.append({
                "name": layer, "cat": "layer", "ph": "X", "pid": 1,
                "tid": tid, "ts": t0 / 1000.0, "dur": dur / 1000.0,
                "args": {"fn": fn_name, "id": span_id, "parent": parent},
            })
        meta = [{"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": process}}]
        meta += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": tag}}
            for tag, tid in tids.items()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "traceEvents": meta + events,
                "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.spans_dropped},
            }, fh)
        return len(events)
