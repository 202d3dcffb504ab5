"""Metrics registry with OpenMetrics/Prometheus text exposition.

A tiny, dependency-free metrics layer next to the event tracer: where
the tracer records *what happened* (a stream of typed events), the
registry aggregates *how much / how long* — counters, gauges, and
histograms — and renders them in the OpenMetrics text format, so the
numbers can be scraped by Prometheus, linted in CI, or fed to the HTML
dashboard.

Metric families are created lazily on first use and carry an optional
``# HELP`` string. Labeled series live under their family, keyed by the
sorted label set. Histograms use fixed upper-bound buckets (cumulative
``_bucket{le=...}`` samples plus ``_sum``/``_count`` on exposition).

:func:`registry_from_events` bridges the two layers: it folds a trace
event stream (e.g. re-read from a ``--trace`` JSONL) into a registry —
per-type event counts, span-duration histograms, simulated task and
transfer durations, and placement-decision regret.

:func:`validate_openmetrics` is a deliberately strict format checker
used by the CI smoke job; it returns a list of problems (empty when the
text is well-formed) instead of raising, so CI can print all of them.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "SIM_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "registry_from_events",
    "render_openmetrics",
    "validate_openmetrics",
]

#: default latency buckets (seconds): half-millisecond to ten seconds
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


class Histogram:
    """Fixed-bucket histogram: counts, sum, and cumulative exposition.

    *buckets* are the finite upper bounds, strictly increasing; the
    implicit ``+Inf`` bucket always exists, so every observation lands
    somewhere. Bucket counts are stored per-interval and cumulated only
    on exposition.
    """

    __slots__ = ("buckets", "_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be strictly increasing: {bounds}")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"buckets must be finite: {bounds}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sum": self.sum,
            "count": self.count,
            "buckets": [
                [b if math.isfinite(b) else None, c]
                for b, c in self.cumulative()
            ],
        }


class MetricsRegistry:
    """Counters, gauges, and histograms under one namespace.

    All mutators auto-create the metric family on first use; ``help``
    text sticks from whichever call first provides it. Label values are
    passed as keyword arguments::

        reg = MetricsRegistry()
        reg.inc("events", type="task_placed")
        reg.set_gauge("memo_size", 42)
        reg.observe("placement_seconds", 0.0031, scheme="locmps")
    """

    def __init__(self, namespace: str = "repro") -> None:
        if namespace and not re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*$", namespace):
            raise ValueError(f"invalid namespace: {namespace!r}")
        self.namespace = namespace
        # family name -> {"type", "help", "series": {labelkey: value|Histogram},
        #                 "buckets": tuple (histograms only)}
        self._families: "Dict[str, Dict[str, Any]]" = {}

    # -- family management ---------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> Dict[str, Any]:
        if not re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*$", name):
            raise ValueError(f"invalid metric name: {name!r}")
        fam = self._families.get(name)
        if fam is None:
            fam = {
                "type": kind,
                "help": help,
                "series": {},
                "buckets": tuple(buckets or DEFAULT_BUCKETS),
            }
            self._families[name] = fam
        elif fam["type"] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam['type']}, "
                f"not {kind}"
            )
        elif help and not fam["help"]:
            fam["help"] = help
        return fam

    @staticmethod
    def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
        for k in labels:
            if not re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*$", k):
                raise ValueError(f"invalid label name: {k!r}")
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    # -- mutators ------------------------------------------------------------------

    def inc(
        self, name: str, amount: float = 1.0, /, *, help: str = "", **labels: Any
    ) -> None:
        """Increment counter *name* (created on first use)."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        fam = self._family(name, "counter", help)
        key = self._label_key(labels)
        fam["series"][key] = fam["series"].get(key, 0.0) + amount

    def set_gauge(
        self, name: str, value: float, /, *, help: str = "", **labels: Any
    ) -> None:
        """Set gauge *name* to *value* (created on first use)."""
        fam = self._family(name, "gauge", help)
        fam["series"][self._label_key(labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        /,
        *,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> None:
        """Record *value* into histogram *name* (created on first use)."""
        fam = self._family(name, "histogram", help, buckets)
        key = self._label_key(labels)
        hist = fam["series"].get(key)
        if hist is None:
            hist = fam["series"][key] = Histogram(fam["buckets"])
        hist.observe(value)

    # -- accessors -----------------------------------------------------------------

    def get(self, name: str, /, **labels: Any) -> Any:
        """The value (counter/gauge) or :class:`Histogram` of one series."""
        fam = self._families.get(name)
        if fam is None:
            return None
        return fam["series"].get(self._label_key(labels))

    def families(self) -> Dict[str, str]:
        """``{family name: type}`` of everything registered."""
        return {name: fam["type"] for name, fam in self._families.items()}

    def __len__(self) -> int:
        return len(self._families)

    # -- exposition ----------------------------------------------------------------

    def render(self) -> str:
        """OpenMetrics text exposition (ends with ``# EOF``)."""
        return render_openmetrics(self)


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(key: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(key)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render *registry* in the OpenMetrics text format."""
    ns = registry.namespace + "_" if registry.namespace else ""
    lines: List[str] = []
    for name in sorted(registry._families):
        fam = registry._families[name]
        full = ns + name
        kind = fam["type"]
        lines.append(f"# TYPE {full} {kind}")
        if fam["help"]:
            lines.append(f"# HELP {full} {_escape_label(fam['help'])}")
        for key in sorted(fam["series"]):
            series = fam["series"][key]
            if kind == "counter":
                lines.append(
                    f"{full}_total{_fmt_labels(key)} {_fmt_value(series)}"
                )
            elif kind == "gauge":
                lines.append(f"{full}{_fmt_labels(key)} {_fmt_value(series)}")
            else:  # histogram
                for bound, cum in series.cumulative():
                    le = _fmt_labels(key, ("le", _fmt_value(bound)))
                    lines.append(f"{full}_bucket{le} {cum}")
                lines.append(
                    f"{full}_sum{_fmt_labels(key)} {_fmt_value(series.sum)}"
                )
                lines.append(f"{full}_count{_fmt_labels(key)} {series.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- format linting -------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)(?: (?P<ts>[0-9.+-eE]+))?$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_openmetrics(text: str) -> List[str]:
    """Lint an OpenMetrics exposition; returns problems (empty = valid).

    Checks structure, not semantics: one terminal ``# EOF``; every sample
    belongs to a declared ``# TYPE`` family (with the ``_total`` /
    ``_bucket`` / ``_sum`` / ``_count`` suffix rules per type); values
    parse as floats; label pairs are well-formed; histogram buckets are
    cumulative and end at ``+Inf`` with the ``_count`` value.
    """
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition must end with '# EOF'")
    types: Dict[str, str] = {}
    # histogram family -> {labelkey-without-le: [(le, cum)]}, checked at the end
    buckets: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, str], float] = {}

    def family_of(sample: str) -> Optional[Tuple[str, str]]:
        for fam, kind in types.items():
            if kind == "counter" and sample == fam + "_total":
                return fam, kind
            if kind == "gauge" and sample == fam:
                return fam, kind
            if kind == "histogram" and sample in (
                fam + "_bucket", fam + "_sum", fam + "_count"
            ):
                return fam, kind
        return None

    for i, line in enumerate(lines, 1):
        if line == "# EOF":
            if i != len(lines):
                problems.append(f"line {i}: '# EOF' before end of exposition")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "info",
            ):
                problems.append(f"line {i}: malformed TYPE line: {line!r}")
            else:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            if len(line.split(" ", 3)) < 4:
                problems.append(f"line {i}: malformed HELP line: {line!r}")
            continue
        if line.startswith("#"):
            problems.append(f"line {i}: unknown comment: {line!r}")
            continue
        if not line.strip():
            problems.append(f"line {i}: blank line inside exposition")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {i}: unparseable sample: {line!r}")
            continue
        name, labels, value = m.group("name"), m.group("labels"), m.group("value")
        fam = family_of(name)
        if fam is None:
            problems.append(
                f"line {i}: sample {name!r} has no matching '# TYPE'"
            )
            continue
        try:
            val = float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            problems.append(f"line {i}: bad value {value!r}")
            continue
        label_items: List[Tuple[str, str]] = []
        if labels:
            for pair in _split_labels(labels[1:-1]):
                if not _LABEL_RE.match(pair):
                    problems.append(f"line {i}: bad label pair {pair!r}")
                else:
                    k, v = pair.split("=", 1)
                    label_items.append((k, v[1:-1]))
        fam_name, kind = fam
        if kind == "histogram":
            others = tuple(sorted(p for p in label_items if p[0] != "le"))
            series_key = (fam_name, repr(others))
            if name.endswith("_bucket"):
                le = dict(label_items).get("le")
                if le is None:
                    problems.append(f"line {i}: histogram bucket missing 'le'")
                else:
                    bound = float(le.replace("+Inf", "inf"))
                    buckets.setdefault(series_key, []).append((bound, val))
            elif name.endswith("_count"):
                counts[series_key] = val

    for (fam_name, _), seq in buckets.items():
        if not seq or not math.isinf(seq[-1][0]):
            problems.append(f"{fam_name}: histogram must end with a +Inf bucket")
            continue
        for (b1, c1), (b2, c2) in zip(seq, seq[1:]):
            if b2 <= b1:
                problems.append(f"{fam_name}: bucket bounds not increasing")
            if c2 < c1:
                problems.append(f"{fam_name}: bucket counts not cumulative")
    for key, seq in buckets.items():
        fam_name = key[0]
        if key in counts and seq and seq[-1][1] != counts[key]:
            problems.append(
                f"{fam_name}: +Inf bucket ({seq[-1][1]:g}) != _count "
                f"({counts[key]:g})"
            )
    return problems


def _split_labels(body: str) -> List[str]:
    """Split a label body on commas that are outside quoted values."""
    out: List[str] = []
    cur: List[str] = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            cur.append(ch)
            escaped = False
        elif ch == "\\":
            cur.append(ch)
            escaped = True
        elif ch == '"':
            cur.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


# -- trace bridge ---------------------------------------------------------------------

#: simulated-duration buckets (schedule time units, wider than wall-clock)
SIM_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)


def registry_from_events(
    events: Iterable[Any], *, namespace: str = "repro"
) -> MetricsRegistry:
    """Fold a trace event stream into a :class:`MetricsRegistry`.

    Produces, per well-known event shape:

    * ``events_total{type=...}`` — every event, counted by name;
    * ``span_seconds{name=...}`` — wall-clock histogram of span events
      (``dur > 0``);
    * ``sim_task_seconds`` / ``sim_transfer_seconds`` — simulated-time
      histograms of replayed task executions and transfers;
    * ``placement_regret`` — histogram of finite placement regrets (the
      runner-up margins of ``placement_decision`` events), plus
      ``placement_decisions_total`` and ``placement_candidates_total``;
    * ``cache_ops_total{op=...}`` — schedule-cache hits (with a ``tier``
      label), misses, stores (with a ``mode`` label), and evictions,
      plus ``cache_warm_starts_total{adopted=...}`` for the warm-start
      profitability gate;
    * ``online_event_seconds{kind=...}`` / ``online_queue_depth`` /
      ``online_jobs_total{op=...}`` — per-event handler latency,
      deferred-queue depth, and job lifecycle counts from the online
      daemon's ``online_event`` / ``job_*`` events.
    """
    reg = MetricsRegistry(namespace=namespace)
    for ev in events:
        reg.inc("events", type=ev.name, help="trace events by type")
        if ev.dur > 0:
            reg.observe(
                "span_seconds", ev.dur, name=ev.name,
                help="wall-clock span durations",
            )
        if ev.name == "sim_task":
            reg.observe(
                "sim_task_seconds",
                ev.fields["finish"] - ev.fields["start"],
                buckets=SIM_BUCKETS,
                help="simulated task durations (incl. inbound comm)",
            )
        elif ev.name == "sim_transfer":
            reg.observe(
                "sim_transfer_seconds",
                ev.fields["finish"] - ev.fields["start"],
                buckets=SIM_BUCKETS,
                help="simulated redistribution durations",
            )
        elif ev.name == "cache_hit":
            reg.inc(
                "cache_ops",
                op="hit",
                tier=ev.fields.get("tier", "memory"),
                help="schedule cache operations",
            )
        elif ev.name == "cache_miss":
            reg.inc("cache_ops", op="miss", help="schedule cache operations")
        elif ev.name == "cache_store":
            reg.inc(
                "cache_ops",
                op="store",
                mode=ev.fields.get("mode", "cold"),
                help="schedule cache operations",
            )
        elif ev.name == "cache_evicted":
            reg.inc(
                "cache_ops", op="eviction", help="schedule cache operations"
            )
        elif ev.name == "cache_warm_start":
            reg.inc(
                "cache_warm_starts",
                adopted="true" if ev.fields.get("adopted") else "false",
                help="graph-delta warm-start attempts by outcome",
            )
        elif ev.name == "online_event":
            reg.observe(
                "online_event_seconds",
                float(ev.fields.get("latency_s", 0.0)),
                kind=ev.fields.get("kind", "unknown"),
                help="online daemon per-event handler latency (wall-clock)",
            )
            reg.set_gauge(
                "online_queue_depth",
                float(ev.fields.get("queue_depth", 0)),
                help="online daemon deferred-queue depth (last observed)",
            )
        elif ev.name in (
            "job_submitted", "job_placed", "job_finished", "job_rejected"
        ):
            reg.inc(
                "online_jobs",
                op=ev.name.split("_", 1)[1],
                help="online daemon job lifecycle transitions",
            )
        elif ev.name == "placement_decision":
            from repro.schedulers.provenance import PlacementDecision

            decision = PlacementDecision.from_dict(ev.fields)
            reg.inc(
                "placement_candidates",
                len(decision.candidates),
                help="candidate holes probed across all decisions",
            )
            reg.inc("placement_decisions", help="recorded placement decisions")
            regret = decision.regret
            if math.isfinite(regret):
                reg.observe(
                    "placement_regret", regret, buckets=SIM_BUCKETS,
                    help="runner-up finish margins (simulated time)",
                )
    return reg
