"""The metrics registry: named counters, gauges, and latency histograms.

Every instrument is a tiny mutable object designed to stay always-on in
the hot paths: a counter increment is one attribute add, a histogram
record is one ``bisect`` into the one shared log grid (quantiles within
2 %, :data:`GRID_REL_ERROR`) plus one dict increment. A
:class:`MetricsRegistry` names and aggregates instruments so one
``snapshot()`` call renders the whole runtime — reactor, transport,
crypto, prediction, simulated links — as a single JSON document.

Every instrument has one owner. Components ask the registry for the
instruments they write when they are wired to it (get-or-create, so N
pumps share ``reactor.ticks``) and increment them where the event
happens; nothing copies counts from one place to another. A component
that keeps its own per-session tallies as plain attributes exports them
through read-through counters (``registry.counter(name, fn=...)``), read
when a snapshot is taken, exactly as callable gauges are.

A process-wide enable switch (:func:`set_enabled`) turns histogram
recording and span tracing into near-no-ops; the benchmark suite uses it
to measure the instrumentation's own overhead A/B in one process.
Counters and gauges stay on either way — they predate this subsystem and
existing behaviour depends on them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fnmatch import fnmatchcase
from typing import Callable, Iterable

from repro.errors import ObservabilityError

#: Schema tag stamped into every snapshot; bump on breaking layout changes.
SNAPSHOT_SCHEMA = "repro.obs/1"

#: Schema tag for incremental feed documents (see :class:`SnapshotDelta`).
DELTA_SCHEMA = "repro.obs.delta/1"

_enabled = True


def set_enabled(flag: bool) -> None:
    """Globally enable/disable histogram recording and span tracing."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    """Whether histogram recording and span tracing are active."""
    return _enabled


class Counter:
    """A monotonically growing (by convention) named number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (one attribute add; safe on any hot path)."""
        self.value += amount


class ReadThroughCounter(Counter):
    """A counter whose value is a component's own tally, read on demand.

    The counter twin of a callable :class:`Gauge`: the component keeps
    counting in a plain attribute, and snapshots read it through ``fn``.
    It has no writer of its own, so it can never disagree with its source.
    """

    __slots__ = ("fn",)

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()


class Gauge:
    """A named instantaneous value, optionally backed by a callable.

    A plain gauge holds whatever :meth:`set` stored last; a callable
    gauge (``fn`` given) reads its source at snapshot time, which lets
    live quantities like simulated-link queue depth appear in snapshots
    without per-packet bookkeeping.
    """

    __slots__ = ("name", "_value", "fn")

    def __init__(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> None:
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        """Store the current value."""
        self._value = value

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value


#: The one bucket grid every histogram records onto. Consecutive bounds
#: grow by ``(1 + GRID_REL_ERROR) ** 2``, so a bucket's geometric midpoint
#: is within ``GRID_REL_ERROR`` of every value in the bucket (the DDSketch
#: bound, Masson et al., VLDB 2019). 1e-3 to 1e7 covers sub-microsecond
#: seals, multi-minute outages in ms, and datagram batch sizes alike.
GRID_REL_ERROR = 0.02
_RATIO = (1.0 + GRID_REL_ERROR) ** 2
_BOUNDS = tuple(
    1e-3 * _RATIO**i for i in range(math.ceil(math.log(1e7 / 1e-3, _RATIO)) + 1)
)
#: Bucket ``i`` (``1 <= i < len(_BOUNDS)``) holds ``[_BOUNDS[i-1], _BOUNDS[i])``
#: and answers quantiles with ``_MIDS[i - 1]``; bucket 0 is underflow and
#: bucket ``len(_BOUNDS)`` overflow.
_MIDS = tuple(math.sqrt(lo * hi) for lo, hi in zip(_BOUNDS, _BOUNDS[1:]))
_OVERFLOW = len(_BOUNDS)
#: Upper bounds as written into summaries: six significant digits keep
#: documents short and still name exactly one grid bound each (adjacent
#: bounds differ by 4 %), so a summary maps back onto the grid by lookup.
_LABELS = tuple(float(f"{bound:.6g}") for bound in _BOUNDS)
_LABEL_INDEX = {label: i for i, label in enumerate(_LABELS)}


class Histogram:
    """Sparse counts on the shared log grid, with quantile accessors.

    Every histogram records onto the one module-level grid, so any two
    histograms of the same unit merge, and a summary document maps back
    onto the grid without knowing which instrument wrote it. Recording is
    one ``bisect_right`` into the shared bounds plus one dict increment
    into ``{bucket index: count}``, cheap enough to sit directly on the
    seal/unseal and keystroke paths. Quantiles are nearest-rank over the buckets, answered with the
    bucket's geometric midpoint: within 2 % (:data:`GRID_REL_ERROR`) of
    the exact sample quantile for values in ``[1e-3, 1e7)``. Below and
    above that range the underflow and overflow buckets report the
    observed minimum and maximum.
    """

    __slots__ = ("name", "unit", "_counts", "count", "total", "min", "max")

    def __init__(self, name: str, unit: str = "ms") -> None:
        self.name = name
        self.unit = unit
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, value: float) -> None:
        """Fold one sample in (a no-op while observability is disabled)."""
        if not _enabled:
            return
        counts = self._counts
        index = bisect_right(_BOUNDS, value)
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- accessors ------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank p-th percentile (0 < p <= 100) from the buckets."""
        if not 0.0 < p <= 100.0:
            raise ObservabilityError(f"percentile {p} outside (0, 100]")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * (p / 100.0))
        seen = 0
        counts = self._counts
        for index in sorted(counts):
            seen += counts[index]
            if seen >= target:
                return self._bucket_value(index)
        return self.max

    def _bucket_value(self, index: int) -> float:
        if index == 0:
            return self.min
        if index == _OVERFLOW:
            return self.max
        return _MIDS[index - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict:
        """The snapshot form: counts, moments, and standard quantiles.

        One pass over the sorted buckets serves all three quantiles and
        the sparse ``[upper_bound, count]`` list (the overflow bound is
        ``"inf"``) — a changed histogram is re-summarized on every
        delta-feed collect, so the 4x cumulative walk matters.
        """
        count = self.count
        quantiles = [0.0, 0.0, 0.0]
        targets = (
            [math.ceil(count * 0.50), math.ceil(count * 0.95),
             math.ceil(count * 0.99)]
            if count
            else []
        )
        buckets: list[list] = []
        counts = self._counts
        seen = 0
        qi = 0
        for index in sorted(counts):
            n = counts[index]
            seen += n
            buckets.append(
                [_LABELS[index] if index < _OVERFLOW else "inf", n]
            )
            while qi < 3 and targets and seen >= targets[qi]:
                quantiles[qi] = self._bucket_value(index)
                qi += 1
        # The mean is derived from the rounded sum, so a document's mean
        # is its own sum over its own count and survives from_summary.
        total = round(self.total, 3)
        return {
            "unit": self.unit,
            "count": count,
            "sum": total,
            "min": round(self.min, 3) if count else 0.0,
            "max": round(self.max, 3),
            "mean": round(total / count, 3) if count else 0.0,
            "p50": round(quantiles[0], 3),
            "p95": round(quantiles[1], 3),
            "p99": round(quantiles[2], 3),
            "buckets": buckets,
        }

    # -- pooling --------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (same unit only).

        The public replacement for reaching into ``_counts``: pooled fleet
        quantiles come from merging the per-session histograms into one
        and asking it for percentiles. Returns ``self`` for chaining.
        """
        if other.unit != self.unit:
            raise ObservabilityError(
                f"cannot merge {other.name!r} ({other.unit}) into "
                f"{self.name!r} ({self.unit}): units differ"
            )
        if other.count == 0:
            return self
        counts = self._counts
        for index, n in other._counts.items():
            counts[index] = counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @classmethod
    def from_summary(cls, summary: dict, name: str = "from_summary") -> "Histogram":
        """Rebuild a histogram from its :meth:`summary` dict.

        Each sparse bucket bound is looked up exactly on the shared grid;
        a bound that is not one of the grid's (a hand-edited or foreign
        document) raises :class:`ObservabilityError`. Lets snapshot
        *documents* — not just live instruments — be pooled, which is
        what a remote dashboard attached over the telemetry socket works
        from.
        """
        hist = cls(name, unit=summary.get("unit", "ms"))
        counts = hist._counts
        for bound, n in summary.get("buckets", []):
            if bound == "inf":
                index = _OVERFLOW
            else:
                index = _LABEL_INDEX.get(float(bound))
                if index is None:
                    raise ObservabilityError(
                        f"summary bucket bound {bound} is not on the "
                        "histogram grid"
                    )
            counts[index] = counts.get(index, 0) + int(n)
        hist.count = int(summary.get("count", 0))
        hist.total = float(summary.get("sum", 0.0))
        if hist.count:
            hist.min = float(summary.get("min", 0.0))
            hist.max = float(summary.get("max", 0.0))
        return hist


class MetricsRegistry:
    """Names and aggregates instruments; renders them as one snapshot.

    Histograms take only a name and a unit: they all share the one grid,
    so :meth:`pool_histograms` merges any set of them with the same unit.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: Open scopes (a session core's name prefix) and the names of
        #: the instruments created under each, so closing a scope costs
        #: O(its own instruments), not O(registry).
        self.scopes: dict[str, list[str]] = {}
        #: The newest scope's ``prefix.`` and name list. A core creates
        #: all its instruments before the next core opens a scope, so a
        #: new instrument is checked against this one scope only.
        self._newest: tuple[str, list[str]] | None = None
        #: Scopes closed so far: a watcher that sees this move resyncs.
        self.scopes_closed = 0

    # -- get-or-create --------------------------------------------------

    def counter(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> Counter:
        """Get or create a counter; ``fn`` makes it read through at snapshot."""
        if fn is None:
            return self._get_or_make(name, Counter, lambda: Counter(name))
        return self._get_or_make(
            name, Counter, lambda: ReadThroughCounter(name, fn)
        )

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> Gauge:
        """Get or create a gauge; ``fn`` makes it read live at snapshot."""
        gauge = self._get_or_make(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, unit: str = "ms") -> Histogram:
        """Get or create a histogram on the shared log grid."""
        return self._get_or_make(name, Histogram, lambda: Histogram(name, unit))

    def _get_or_make(self, name, kind, make):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"{name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = make()
        self._instruments[name] = instrument
        newest = self._newest
        if newest is not None and name.startswith(newest[0]):
            newest[1].append(name)
        return instrument

    # -- scopes ---------------------------------------------------------

    def open_scope(self, base: str) -> str:
        """Reserve a name prefix no open scope holds: ``base``, else
        ``base#2``, ``#3``…, so no two owners write one instrument.

        Instruments named ``prefix.*`` and created while it is the
        newest open scope belong to it.
        """
        prefix = base
        n = 1
        while prefix in self.scopes:
            n += 1
            prefix = f"{base}#{n}"
        self.scopes[prefix] = owned = []
        self._newest = (prefix + ".", owned)
        return prefix

    def close_scope(self, prefix: str) -> None:
        """Drop every instrument the scope owns and free its prefix."""
        for name in self.scopes.pop(prefix):
            del self._instruments[name]
        self.scopes_closed += 1

    # -- lookup ---------------------------------------------------------

    def get(self, name: str):
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Sorted instrument names (tests and dashboards)."""
        return sorted(self._instruments)

    def match(self, pattern: str) -> list[str]:
        """Sorted instrument names matching a glob ``pattern``."""
        return sorted(
            name for name in self._instruments if fnmatchcase(name, pattern)
        )

    def pool_histograms(
        self, names: str | Iterable[str], name: str = "pooled"
    ) -> Histogram | None:
        """Merge histograms into one (a glob pattern or names).

        Returns a fresh pooled :class:`Histogram` — the registry's own
        instruments are untouched — or ``None`` when nothing matched.
        Zero-sample members cost one attribute check each, so pooling a
        fleet-wide pattern stays cheap when only a few sessions are hot.
        """
        if isinstance(names, str):
            names = self.match(names)
        base: Histogram | None = None
        for key in names:
            inst = self._instruments.get(key)
            if not isinstance(inst, Histogram):
                continue
            if base is None:
                base = Histogram(name, inst.unit)
            if inst.count:
                base.merge(inst)
        return base

    # -- rendering ------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as one JSON-ready document."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = round(instrument.value, 4)
            else:
                histograms[name] = instrument.summary()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


_HIST_REQUIRED_KEYS = {
    "unit", "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
    "buckets",
}


def validate_snapshot(doc: object) -> None:
    """Raise :class:`ObservabilityError` unless ``doc`` is a valid snapshot.

    Hand-rolled (no jsonschema dependency): checks the schema tag, the
    section layout, numeric leaf types, and histogram summary shape. CI
    runs this over the artifact every build.
    """
    if not isinstance(doc, dict):
        raise ObservabilityError("snapshot must be a JSON object")
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ObservabilityError(
            f"snapshot schema {doc.get('schema')!r} != {SNAPSHOT_SCHEMA!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise ObservabilityError(f"snapshot section {section!r} missing")
    for section in ("counters", "gauges"):
        for name, value in doc[section].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObservabilityError(
                    f"{section}[{name!r}] is {type(value).__name__}, "
                    "expected a number"
                )
    for name, summary in doc["histograms"].items():
        if not isinstance(summary, dict):
            raise ObservabilityError(f"histograms[{name!r}] not an object")
        missing = _HIST_REQUIRED_KEYS - summary.keys()
        if missing:
            raise ObservabilityError(
                f"histograms[{name!r}] missing keys {sorted(missing)}"
            )
        if not isinstance(summary["buckets"], list):
            raise ObservabilityError(f"histograms[{name!r}].buckets not a list")


def merge_summaries(summaries: Iterable[dict], name: str = "pooled") -> Histogram:
    """Pool histogram *summary dicts* into one Histogram.

    The document-level sibling of :meth:`MetricsRegistry.pool_histograms`:
    dashboards that only hold a snapshot JSON — not live instruments —
    reconstruct each summary onto the shared grid and merge. An empty
    iterable yields an empty histogram.
    """
    pooled: Histogram | None = None
    for summary in summaries:
        hist = Histogram.from_summary(summary)
        if pooled is None:
            pooled = hist
            pooled.name = name
        else:
            pooled.merge(hist)
    if pooled is None:
        pooled = Histogram(name)
    return pooled


class SnapshotDelta:
    """Tracks what a feed subscriber has seen; emits only the changes.

    ``prime()`` returns a full snapshot and records its values;
    each subsequent ``collect()`` returns a ``repro.obs.delta/1``
    document holding *absolute* values for just the instruments that
    changed since the previous call — or ``None`` when nothing moved.
    A delta cannot say that an instrument is gone, so once a scope has
    been closed (a session torn down) ``collect()`` primes again and
    returns a full snapshot, which replaces the subscriber's view.
    Change detection is per instrument (counters and gauges by value,
    histograms by sample count), so an idle 10k-session fleet costs one
    comparison per instrument per tick and ships nothing.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hist_counts: dict[str, int] = {}
        self._scopes_closed = registry.scopes_closed
        self.seq = 0

    def prime(self) -> dict:
        """Full snapshot; resets the baseline this delta diffs against."""
        self._scopes_closed = self._registry.scopes_closed
        doc = self._registry.snapshot()
        self._counters = dict(doc["counters"])
        self._gauges = dict(doc["gauges"])
        self._hist_counts = {
            name: summary["count"]
            for name, summary in doc["histograms"].items()
        }
        self.seq = 0
        return doc

    def collect(self) -> dict | None:
        """The changed instruments since last time, or None if quiet."""
        if self._registry.scopes_closed != self._scopes_closed:
            return self.prime()
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        seen_c, seen_g, seen_h = self._counters, self._gauges, self._hist_counts
        # Insertion-order iteration: registration order is deterministic,
        # and skipping the sort keeps a quiet collect at one dict walk —
        # this runs once per second per subscriber on a live daemon.
        for name, inst in self._registry._instruments.items():
            if isinstance(inst, Counter):
                value = inst.value
                if seen_c.get(name) != value:
                    counters[name] = seen_c[name] = value
            elif isinstance(inst, Gauge):
                # Same rounding as snapshot(), so a reassembled document
                # compares equal to a snapshot taken at the same instant.
                value = round(inst.value, 4)
                if seen_g.get(name) != value:
                    gauges[name] = seen_g[name] = value
            else:
                count = inst.count
                if seen_h.get(name) != count:
                    seen_h[name] = count
                    histograms[name] = inst.summary()
        if not (counters or gauges or histograms):
            return None
        self.seq += 1
        return {
            "schema": DELTA_SCHEMA,
            "seq": self.seq,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def apply_delta(base: dict | None, doc: dict) -> dict:
    """Merge a feed line onto ``base``, returning the updated snapshot.

    Accepts either a full ``repro.obs/1`` snapshot (which replaces the
    base — the first line of a ``watch`` stream) or a ``repro.obs.delta/1``
    document (whose sections overwrite matching names). Non-metric keys
    riding on a delta line (``alerts``, ``at_ms``) are ignored here. The
    result always validates as a plain snapshot.
    """
    if not isinstance(doc, dict):
        raise ObservabilityError("feed line must be a JSON object")
    schema = doc.get("schema")
    if schema == SNAPSHOT_SCHEMA:
        validate_snapshot(doc)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(doc["counters"]),
            "gauges": dict(doc["gauges"]),
            "histograms": {k: dict(v) for k, v in doc["histograms"].items()},
        }
    if schema != DELTA_SCHEMA:
        raise ObservabilityError(
            f"feed line schema {schema!r} is neither "
            f"{SNAPSHOT_SCHEMA!r} nor {DELTA_SCHEMA!r}"
        )
    merged = {
        "schema": SNAPSHOT_SCHEMA,
        "counters": dict(base["counters"]) if base else {},
        "gauges": dict(base["gauges"]) if base else {},
        "histograms": dict(base["histograms"]) if base else {},
    }
    merged["counters"].update(doc.get("counters", {}))
    merged["gauges"].update(doc.get("gauges", {}))
    merged["histograms"].update(doc.get("histograms", {}))
    return merged
