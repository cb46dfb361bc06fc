"""Dependency-free metrics: counters, gauges, histograms, exposition.

The process-global :data:`REGISTRY` is the one place every layer of the
stack records into — the HTTP server, the job queue, the report caches,
the process pool and the solver runner all get-or-create their
instruments here, and ``GET /v1/metrics`` renders
the whole registry in the Prometheus text exposition format (0.0.4).

Everything is stdlib: per-metric locks make increments/observations
thread-safe (handler threads, queue drainers and batch collectors all
write concurrently), and :func:`parse_exposition` is a tiny in-repo
parser so tests and CI can assert on the rendered output without a
Prometheus client library.

Instruments are *families*: one name + help + fixed label names, with
one child time series per distinct label-value tuple. Children are
created on first use; reading an untouched child yields 0.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
           "DEFAULT_BUCKETS", "CONTENT_TYPE", "parse_exposition"]

#: The content type ``GET /v1/metrics`` answers with.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) sized for this stack: sub-millisecond cache
#: hits up to multi-second PTAS solves.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_INF = float("inf")


def _escape(value: object) -> str:
    """Escape a label value for the exposition format."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    """Render a sample value: integral floats without the trailing .0."""
    if value == _INF:
        return "+Inf"
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _labelset(labelnames: Sequence[str],
              values: Sequence[str], extra: str = "") -> str:
    parts = [f'{n}="{_escape(v)}"' for n, v in zip(labelnames, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared family plumbing: name, help, label names, child map."""

    kind = ""

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def clear(self) -> None:
        """Drop every child series (tests)."""
        with self._lock:
            self._children.clear()

    # subclasses: _zero(), render_samples()


class Counter(_Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._children.get(key, 0.0)

    def total(self) -> float:
        """Sum over every child series."""
        with self._lock:
            return sum(self._children.values())

    def render_samples(self) -> Iterator[str]:
        with self._lock:
            items = sorted(self._children.items())
        for key, val in items:
            yield (f"{self.name}{_labelset(self.labelnames, key)} "
                   f"{_fmt(val)}")


class Gauge(_Metric):
    """A value that can go up and down (depths, widths, pin counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._children.get(key, 0.0)

    render_samples = Counter.render_samples


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        self.buckets = tuple(bounds)

    def _zero(self) -> list:
        # per-bucket (non-cumulative) counts, +Inf overflow, sum, count
        return [[0] * (len(self.buckets) + 1), 0.0, 0]

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        idx = bisect_left(self.buckets, float(value))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._zero()
            child[0][idx] += 1
            child[1] += float(value)
            child[2] += 1

    def snapshot(self, **labels: Any) -> dict:
        """One child's state: cumulative bucket counts, sum, count."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key) or self._zero()
            counts, total, count = list(child[0]), child[1], child[2]
        out: dict[str, Any] = {"buckets": {}, "sum": total, "count": count}
        acc = 0
        for bound, n in zip((*self.buckets, _INF), counts):
            acc += n
            out["buckets"][_fmt(bound)] = acc
        return out

    def render_samples(self) -> Iterator[str]:
        with self._lock:
            items = sorted((k, (list(v[0]), v[1], v[2]))
                           for k, v in self._children.items())
        for key, (counts, total, count) in items:
            acc = 0
            for bound, n in zip((*self.buckets, _INF), counts):
                acc += n
                labels = _labelset(self.labelnames, key,
                                   f'le="{_fmt(bound)}"')
                yield f"{self.name}_bucket{labels} {acc}"
            labels = _labelset(self.labelnames, key)
            yield f"{self.name}_sum{labels} {_fmt(total)}"
            yield f"{self.name}_count{labels} {count}"


class MetricsRegistry:
    """Get-or-create home for every metric family in the process.

    Re-asking for an existing name returns the existing instrument
    (help text is kept from the first non-empty registration); asking
    with a different kind or label set is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(
                    name, help, labelnames, **kwargs)
            else:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"{name} is a {metric.kind}, not a {cls.kind}")
                if metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"{name} has labels {metric.labelnames}, "
                        f"not {tuple(labelnames)}")
                if help and not metric.help:
                    metric.help = help
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        for metric in metrics:
            help_text = metric.help.replace("\\", "\\\\").replace("\n",
                                                                  "\\n")
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render_samples())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every child series, keep the families (tests)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()


#: The process-global registry every layer records into and
#: ``GET /v1/metrics`` renders.
REGISTRY = MetricsRegistry()


# --------------------------------------------------------------------- #
# exposition parsing (tests / CI)
# --------------------------------------------------------------------- #

def _parse_labels(body: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        j = eq + 2
        out: list[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                nxt = body[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(body[j])
                j += 1
        labels[name] = "".join(out)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def parse_exposition(text: str) -> tuple[dict[str, str],
                                         dict[tuple[str, frozenset],
                                              float]]:
    """Parse the text exposition format back into data.

    Returns ``(families, samples)``: ``families`` maps family name to
    its TYPE, ``samples`` maps ``(sample_name, frozenset(labels))`` to
    the value — histogram families contribute ``*_bucket``/``*_sum``/
    ``*_count`` sample names. Raises ``ValueError`` on malformed lines,
    which is what makes it a format-validity check for the renderer.
    """
    families: dict[str, str] = {}
    samples: dict[tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind.strip() not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                raise ValueError(f"bad TYPE line: {line!r}")
            families[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue        # HELP / comments
        brace = line.find("{")
        space = line.find(" ")
        if brace != -1 and (space == -1 or brace < space):
            name = line[:brace]
            end = line.rindex("}")
            labels = _parse_labels(line[brace + 1:end])
            value = float(line[end + 1:].strip())
        else:
            name, _, rest = line.partition(" ")
            labels = {}
            value = float(rest.strip())
        if not name:
            raise ValueError(f"sample line without a name: {line!r}")
        samples[(name, frozenset(labels.items()))] = value
    return families, samples
