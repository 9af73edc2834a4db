"""Pieces every workload shares: the outcome record, memory and table checks."""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import stats

@dataclass
class Outcome:
    """What one workload run produced.

    ``gate`` holds the end-to-end metrics of ``BENCHMARK.json`` by name
    (value, unit); ``named`` holds the path-specific metrics under their
    own names, with the sample count behind each timing.
    """

    tally: stats.Tally
    gate: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: dict[str, dict] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def name(self, metric: str, value, unit: str, n: int | None = None, **extra) -> None:
        self.named[metric] = {"value": value, "unit": unit, "n": n, **extra}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setups(build, teardown, count: int) -> tuple[object, float, list[float]]:
    """Run ``build`` ``count`` times; keep the last, tear the rest down.

    Returns ``(kept, median seconds, every time)``.
    """
    times = []
    kept = None
    for _ in range(count):
        if kept is not None:
            teardown(kept)
        start = time.perf_counter()
        kept = build()
        times.append(time.perf_counter() - start)
    return kept, stats.median(times), times


def table_ok(table, n_rows: int, schema) -> bool:
    """The requested row count and the training schema, column by column."""
    if table.n_rows != n_rows or table.schema.to_dict() != schema.to_dict():
        return False
    return all(len(table.column(name)) == n_rows for name in schema.names)


def tables_equal(a, b) -> bool:
    """Bit-identical tables: same schema and exactly equal columns."""
    if a.schema.to_dict() != b.schema.to_dict():
        return False
    return all(np.array_equal(a.column(name), b.column(name)) for name in a.schema.names)


def table_digest(table) -> str:
    """SHA-256 of a table's exact wire form (schema and every value)."""
    from repro.serve.server import table_to_wire

    return hashlib.sha256(json.dumps(table_to_wire(table)).encode()).hexdigest()


def kg_validity(reasoner, table) -> float:
    from repro.knowledge.validator import BatchValidator

    return BatchValidator(reasoner).report(table).validity_rate
