"""Summary rules shared by every workload: percentiles, open loops, failures.

Everything here is pure arithmetic over recorded numbers, so the unit tests
drive it with fake clocks and hand-written samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Percentiles tried for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile, or None without ``MIN_BEYOND`` samples beyond it.

    The nearest-rank value at ``pct`` is the ``ceil(pct/100 * n)``-th
    smallest sample; the samples beyond it are the ones ranked after it.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def summarize(values: list[float]) -> dict:
    """``{"n", "p50", "tail_pct", "tail"}`` under the ten-beyond rule.

    ``p50`` is None below 20 samples; ``tail`` is the highest of
    :data:`TAIL_PERCENTILES` that the sample supports (None if none does).
    """
    summary = {"n": len(values), "p50": percentile(values, 50.0), "tail_pct": None, "tail": None}
    for pct in TAIL_PERCENTILES:
        value = percentile(values, pct)
        if value is not None:
            summary["tail_pct"] = pct
            summary["tail"] = value
            break
    return summary


def median(values: list[float]) -> float:
    """Plain median (for repeated set-up times, where the rule does not apply)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Share of the samples dropped at each end by :func:`trimmed_mean`.
TRIM = 0.1


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean of the samples left after dropping ``trim`` of them at each end.

    The gated timings use it: on a host whose speed drifts between a fast
    and a slow state every few seconds, a median flips with the share of
    time spent in each state, while a mean averages the two; trimming keeps
    a rare stall from dominating the mean.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("mean of no values")
    cut = int(len(ordered) * trim)
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


@dataclass
class Tally:
    """Operations attempted and failed; a failed check counts as a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed_share


# --------------------------------------------------------------------------- #
# Open-loop load
# --------------------------------------------------------------------------- #
def poisson_due_times(rate: float, count: int, rng) -> list[float]:
    """Send offsets (seconds from the phase start) of ``count`` independent
    arrivals at ``rate``/s: exponential gaps drawn from ``rng``, first at 0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    gaps = rng.exponential(1.0 / rate, size=max(count - 1, 0))
    offsets = [0.0]
    for gap in gaps:
        offsets.append(offsets[-1] + float(gap))
    return offsets[:count]


@dataclass
class Sent:
    """One open-loop request, all times on one clock, in seconds.

    ``due`` is when the schedule wanted it sent, ``start`` when a connection
    actually sent it, ``end`` when its response was decoded (None if it
    failed).
    """

    due: float
    start: float
    end: float | None

    @property
    def lateness(self) -> float:
        return self.start - self.due

    @property
    def latency(self) -> float:
        """Time from due to done: a stall delays every later request too."""
        if self.end is None:
            return math.inf
        return self.end - self.due


def meets_limit(sent: list[Sent], limit: float, pct: float = 90.0) -> bool:
    """Whether one fixed-rate phase met the latency limit without a backlog.

    A failed request has infinite latency, so it counts against the limit.
    The phase fails when the percentile is unsupported, exceeds ``limit``,
    or when the generator's lateness over the last quarter of the phase has
    a median above half the limit (a queue that keeps growing).
    """
    latency = percentile([s.latency for s in sent], pct)
    if latency is None or latency > limit:
        return False
    tail = sorted(sent, key=lambda s: s.due)[-max(1, len(sent) // 4) :]
    return median([s.lateness for s in tail]) <= limit / 2.0
