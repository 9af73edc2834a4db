"""One command for the three KiNETGAN user paths: fit, federated round, HTTP sample.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced and then traced,
and prints the per-layer metrics, the coverage and the tracing overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it print
each path's metrics under their own names, and the full record (with the
machine fingerprint and, for traced runs, the span file) is written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "federated", "serve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the program and the benchmark on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _print_named(workload: str, named: dict) -> None:
    for name, entry in named.items():
        value = entry["value"]
        shown = "unsupported" if value is None else f"{value:.6g}"
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit") and v is not None}
        print(f"[{workload}] {name} = {shown} {entry['unit']} {json.dumps(extra)}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    _import_program()

    from perfbench import federated, fingerprint, layers, serve, train

    module = {"train": train, "federated": federated, "serve": serve}[args.workload]
    out_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    if args.trace:
        outcome = module.trace(args.seed, args.seconds, out_dir)
        metrics = {name: 0.0 for name in layers.metric_names()}
        metrics.update(outcome.layers)
        units = layers.metric_names()
        report = {name: {"value": float(metrics[name]), "unit": units[name]} for name in units}
        (out_dir / "spans.json").write_text(json.dumps(outcome.spans))
        coverage = metrics["coverage"]
        low = "  LOW: a layer is missing" if coverage < 0.9 else ""
        print(f"[{args.workload}] coverage = {coverage:.3f}{low}")
        overhead = metrics["trace.overhead_ms"]
        print(f"[{args.workload}] tracing overhead = {overhead:.3f} ms per operation")
    else:
        outcome = module.measure(args.seed, args.seconds, out_dir)
        outcome.name("failed_share", outcome.tally.failed_share, "share", n=outcome.tally.attempted)
        outcome.name("peak_rss_mb", outcome.gate["peak_rss_mb"][0], "MB")
        _print_named(args.workload, outcome.named)
        report = {
            name: {"value": value, "unit": unit} for name, (value, unit) in outcome.gate.items()
        }
    for problem in outcome.tally.problems:
        print(f"[{args.workload}] CHECK FAILED: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "fingerprint": fingerprint.fingerprint("float64"),
        "named": outcome.named,
        "metrics": report,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=2))
    print(f"[{args.workload}] fingerprint = {json.dumps(record['fingerprint'])}")
    correct = outcome.tally.failed == 0 and all(math.isfinite(m["value"]) for m in report.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.tally.attempted,
                "failed": outcome.tally.failed,
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
