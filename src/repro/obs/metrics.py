"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds a process- or daemon-scoped family of
named metrics and renders them in the Prometheus text exposition format
(version 0.0.4), so any scraper — the bundled soak harness, ``curl`` through
``repro daemon status --prom``, or a real Prometheus — reads the same
surface.  Three metric kinds cover everything the serving stack needs:

* :class:`Counter` — a monotone float total, optionally split by labels
  (``repro_lp_decisions_total{method="rowgen"}``).
* :class:`Gauge` — a value that can go up and down (queue depth), either set
  explicitly or computed at scrape time through a ``callback``.
* :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``,
  the Prometheus layout (each observation lands in every bucket whose upper
  bound ``le`` is ≥ the value).

All mutation goes through one registry lock; increments are therefore safe
under a daemon's connection threads, and the render is a consistent snapshot.
The module-level :func:`global_registry` is the process-wide default the LP
layer feeds (there is exactly one LP layer per process, unlike services,
which each own their registry); :func:`render_registries` merges several
registries into one exposition — the daemon renders its own registry plus
the global one.

:func:`parse_exposition` is the strict round-trip validator used by the
tests, the soak scraper and the CI daemon-smoke job: it accepts exactly the
subset of the format this module emits and returns ``{name: {labelset:
value}}`` samples.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError

#: Default histogram buckets for latencies in seconds: sub-millisecond cache
#: hits through minutes-long LP solves.
LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ReproError):
    """An invalid metric registration, sample or exposition document."""


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (``+Inf`` included)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - never emitted by our metrics
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Common bookkeeping of one registered metric family."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
    ):
        self._registry = registry
        self._lock = registry._lock
        self.name = _validate_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricsError(f"invalid label name {label!r} on {name!r}")
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def header_lines(self) -> List[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def sample_lines(self) -> List[str]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(_Metric):
    """A monotone total.  ``inc`` only; negative increments are rejected."""

    kind = "counter"

    def __init__(self, registry, name, help, labelnames=()):
        super().__init__(registry, name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def set_total(self, total: float, **labels: str) -> None:
        """Force the running total (the :class:`ServiceStats` setter shim).

        Prometheus counters are monotone on the wire; this exists so code
        that historically assigned ``stats.counter = value`` keeps working,
        and it refuses to run a total backwards.
        """
        key = self._key(labels)
        with self._lock:
            if total < self._values.get(key, 0.0):
                raise MetricsError(f"counter {self.name!r} cannot decrease")
            self._values[key] = float(total)

    def sample_lines(self) -> List[str]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_label_suffix(self.labelnames, key)} {format_value(value)}"
            for key, value in items
        ]

    def reset(self) -> None:
        with self._lock:
            if self.labelnames:
                self._values.clear()
            else:
                self._values = {(): 0.0}


class Gauge(_Metric):
    """A value that can go up and down; optionally computed at scrape time."""

    kind = "gauge"

    def __init__(
        self,
        registry,
        name,
        help,
        labelnames=(),
        callback: Optional[Callable[[], float]] = None,
    ):
        super().__init__(registry, name, help, labelnames)
        if callback is not None and labelnames:
            raise MetricsError("callback gauges cannot carry labels")
        self.callback = callback
        self._values: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames and callback is None:
            self._values[()] = 0.0

    def set(self, value: float, **labels: str) -> None:
        if self.callback is not None:
            raise MetricsError(f"gauge {self.name!r} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if self.callback is not None:
            raise MetricsError(f"gauge {self.name!r} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        if self.callback is not None:
            return float(self.callback())
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def sample_lines(self) -> List[str]:
        if self.callback is not None:
            return [f"{self.name} {format_value(float(self.callback()))}"]
        with self._lock:
            items = sorted(self._values.items())
        return [
            f"{self.name}{_label_suffix(self.labelnames, key)} {format_value(value)}"
            for key, value in items
        ]

    def reset(self) -> None:
        with self._lock:
            if self.labelnames:
                self._values.clear()
            elif self.callback is None:
                self._values = {(): 0.0}


class Histogram(_Metric):
    """Fixed cumulative buckets plus ``_sum``/``_count`` per label set.

    ``buckets`` are the finite upper bounds in strictly increasing order;
    the ``+Inf`` bucket is implicit.  An observation equal to a bound lands
    in that bound's bucket (Prometheus ``le`` semantics are ≤).
    """

    kind = "histogram"

    def __init__(self, registry, name, help, buckets, labelnames=()):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError(f"histogram {self.name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {self.name!r} buckets must strictly increase"
            )
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        # Per label set: [per-finite-bucket counts..., inf count], sum.
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        if not self.labelnames:
            self._counts[()] = [0] * (len(self.buckets) + 1)
            self._sums[()] = 0.0

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def bucket_counts(self, **labels: str) -> Dict[str, int]:
        """Cumulative counts keyed by the rendered ``le`` bound (tests/tools)."""
        key = self._key(labels)
        with self._lock:
            raw = list(self._counts.get(key, [0] * (len(self.buckets) + 1)))
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, raw):
            running += count
            cumulative[format_value(bound)] = running
        cumulative["+Inf"] = running + raw[-1]
        return cumulative

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """A bucket-resolution quantile estimate (upper bound of the bucket).

        Returns ``None`` with no observations.  The answer is the smallest
        bucket bound covering the ``q``-fraction of observations — exact up
        to bucket granularity, which is what a fixed-bucket histogram can
        honestly give.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError("quantile must be within [0, 1]")
        key = self._key(labels)
        with self._lock:
            raw = list(self._counts.get(key, ()))
        total = sum(raw)
        if total == 0:
            return None
        target = q * total
        running = 0
        for bound, count in zip(self.buckets, raw):
            running += count
            if running >= target:
                return bound
        return math.inf

    def sample_lines(self) -> List[str]:
        with self._lock:
            keys = sorted(self._counts)
            raw = {key: list(self._counts[key]) for key in keys}
            sums = dict(self._sums)
        lines: List[str] = []
        bucket_labelnames = self.labelnames + ("le",)
        for key in keys:
            running = 0
            for bound, count in zip(self.buckets, raw[key]):
                running += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_suffix(bucket_labelnames, key + (format_value(bound),))}"
                    f" {running}"
                )
            running += raw[key][-1]
            lines.append(
                f"{self.name}_bucket"
                f"{_label_suffix(bucket_labelnames, key + ('+Inf',))} {running}"
            )
            lines.append(
                f"{self.name}_sum{_label_suffix(self.labelnames, key)} "
                f"{format_value(sums[key])}"
            )
            lines.append(
                f"{self.name}_count{_label_suffix(self.labelnames, key)} {running}"
            )
        return lines

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()
            if not self.labelnames:
                self._counts[()] = [0] * (len(self.buckets) + 1)
                self._sums[()] = 0.0


class MetricsRegistry:
    """A named family of metrics with one consistent text exposition."""

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or existing.labelnames != metric.labelnames:
                    raise MetricsError(
                        f"metric {metric.name!r} is already registered with a "
                        "different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        """Register (or fetch the existing) counter ``name``."""
        return self._register(Counter(self, name, help, labelnames))

    def gauge(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        callback: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Register a gauge; ``callback`` computes the value at scrape time."""
        gauge = self._register(Gauge(self, name, help, labelnames, callback))
        if callback is not None:
            gauge.callback = callback  # re-registration refreshes the closure
        return gauge

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        """Register a fixed-bucket histogram."""
        return self._register(Histogram(self, name, help, buckets, labelnames))

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        return render_registries(self)

    def reset(self) -> None:
        """Zero every metric, keeping the registrations (test isolation)."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


def render_registries(*registries: MetricsRegistry) -> str:
    """Merge several registries into one exposition document.

    Later registries must not re-declare a name an earlier one exposed —
    duplicate metric families are a scrape error in Prometheus, so they are
    one here too.
    """
    lines: List[str] = []
    seen: Dict[str, str] = {}
    for registry in registries:
        with registry._lock:
            metrics = [registry._metrics[name] for name in sorted(registry._metrics)]
        for metric in metrics:
            if metric.name in seen:
                raise MetricsError(
                    f"metric {metric.name!r} exposed by more than one registry"
                )
            seen[metric.name] = metric.kind
            lines.extend(metric.header_lines())
            lines.extend(metric.sample_lines())
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry the LP layer feeds (one LP layer per process).
_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The lazily created process-wide default registry."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY


# --------------------------------------------------------------------- #
# Exposition parsing (the validator side)
# --------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_exposition(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Strictly parse a Prometheus text document into ``{name: {labels: value}}``.

    ``labels`` keys are sorted ``(name, value)`` tuples.  Raises
    :class:`MetricsError` on anything malformed: unknown line shapes,
    samples without a preceding ``# TYPE``, duplicate samples, bad values.
    This is deliberately *stricter* than a real Prometheus scraper — it is
    the round-trip guard for our own renderer.
    """
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            if not parts or not _NAME_RE.match(parts[0]):
                raise MetricsError(f"line {line_number}: malformed HELP line")
            if parts[0] in helped:
                raise MetricsError(f"line {line_number}: duplicate HELP {parts[0]}")
            helped[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2 or not _NAME_RE.match(parts[0]):
                raise MetricsError(f"line {line_number}: malformed TYPE line")
            if parts[1] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise MetricsError(
                    f"line {line_number}: unknown metric type {parts[1]!r}"
                )
            if parts[0] in typed:
                raise MetricsError(f"line {line_number}: duplicate TYPE {parts[0]}")
            typed[parts[0]] = parts[1]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise MetricsError(f"line {line_number}: unparseable sample {line!r}")
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            raise MetricsError(
                f"line {line_number}: sample {name!r} has no preceding # TYPE"
            )
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw_labels):
                labels.append(
                    (pair.group("name"), _unescape_label_value(pair.group("value")))
                )
                consumed = pair.end()
            if consumed != len(raw_labels):
                raise MetricsError(
                    f"line {line_number}: malformed label block {raw_labels!r}"
                )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise MetricsError(
                    f"line {line_number}: bad sample value {value_text!r}"
                ) from None
        key = tuple(sorted(labels))
        series = samples.setdefault(name, {})
        if key in series:
            raise MetricsError(f"line {line_number}: duplicate sample {line!r}")
        series[key] = value
    return samples
