"""Workload ``train``: a seeded KiNETGAN fit, then bulk in-process sampling.

Chosen because the training step (``repro.core``, ``repro.neural``, the
``repro.tabular`` sampler and ``repro.knowledge``) does almost all of the
work and ``repro.runtime``, ``repro.federated`` and ``repro.serve`` do none:
a change to the runtime or serving layers must leave this workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from perfbench import common, layers, stats, tracing

ROOT = Path(__file__).resolve().parent.parent

#: UNSW-NB15 rows the model trains on.
ROWS = 3000
#: Dataset syntheses per run; ``setup_s`` is their median.
SETUPS = 9
#: Fixed epochs: the fit is the same amount of work on every commit.
EPOCHS = 3
#: The same seeded fit is repeated until the budget is spent, at least
#: this many times; each refit is followed by ``SAMPLES_PER_FIT`` bulk
#: ``sample`` calls, so fits and samples are both timed across the whole
#: run rather than in one stretch of it.
MIN_FITS = 2
SAMPLES_PER_FIT = 4
#: Rows per bulk ``sample`` call.
SAMPLE_ROWS = 20_000
#: Passes per measured run, each in a fresh interpreter: the same seeded
#: fit runs 1.9-2.5 s depending on the process, so the figures pool several.
PROCESSES = 3
#: Rows of the determinism check: every refit must sample identically.
CHECK_ROWS = 256


def _config(seed: int):
    from repro.core import KiNETGANConfig

    return KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=EPOCHS,
        batch_size=64,
        lambda_knowledge=2.0,
        seed=seed,
        dtype="float64",
    )


def _setup():
    """The training corpus: the loader's default seed, so every ``--seed``
    trains on the same rows and only the model and sampling seeds vary."""
    from repro.datasets import load_unsw_nb15

    return load_unsw_nb15(n_records=ROWS)


def _pass(bundle, seed: int, budget: float, tally: stats.Tally, tracer: tracing.Tracer | None):
    """Refit and sample in turns until ``budget`` seconds, then check outputs."""
    from repro.core import KiNETGAN
    from repro.engine import sampling_rng

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    started = time.perf_counter()
    fit_s: list[float] = []
    sample_s: list[float] = []
    reference = first = None
    # A fit-and-sample cycle takes seconds, so one starts only while it is
    # expected to end within half a cycle of the budget.
    cycle = 0.0
    while len(fit_s) < MIN_FITS or time.perf_counter() - started + cycle / 2 < budget:
        cycle_start = start = time.perf_counter()
        model = KiNETGAN(_config(seed))
        with span("bench.fit"):
            model.fit(
                bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
            )
        fit_s.append(time.perf_counter() - start)
        check = model.sample(CHECK_ROWS, rng=sampling_rng(seed))
        reference = reference if reference is not None else check
        same = common.tables_equal(check, reference)
        tally.record(same, f"refit {len(fit_s)} samples differently")
        for _ in range(SAMPLES_PER_FIT):
            index = len(sample_s)
            start = time.perf_counter()
            with span("bench.sample"):
                table = model.sample(SAMPLE_ROWS, rng=sampling_rng(seed * 1000 + index))
            sample_s.append(time.perf_counter() - start)
            ok = common.table_ok(table, SAMPLE_ROWS, bundle.schema)
            tally.record(ok, f"sample {index}: rows or schema")
            first = first if first is not None else table
        cycle = time.perf_counter() - cycle_start

    with span("bench.kg_check"):
        validity = common.kg_validity(model.reasoner, first)
    tally.record(0.0 < validity <= 1.0, f"kg validity {validity}")
    return {
        "fit_s": fit_s,
        "sample_s": sample_s,
        "kg_validity": validity,
        "digest": common.table_digest(reference),
    }


def _child_pass(seed: int, budget: float) -> dict:
    """One pass in a fresh interpreter; returns its JSON result."""
    command = [sys.executable, "-m", "perfbench.train", "--seed", str(seed)]
    command += ["--budget", str(budget)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=50
    )
    if done.returncode != 0:
        raise RuntimeError(f"train pass failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(seed: int, seconds: float, out_dir) -> common.Outcome:
    tally = stats.Tally()
    _, setup_s, setups = common.timed_setups(_setup, lambda _: None, SETUPS)
    passes = [_child_pass(seed, seconds / PROCESSES) for _ in range(PROCESSES)]
    for part in passes:
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        tally.problems.extend(part["problems"])
    # The same seed must fit and sample bit-identically in every process.
    tally.record(len({part["digest"] for part in passes}) == 1, "passes sampled differently")
    tally.record(len({part["kg_validity"] for part in passes}) == 1, "passes disagree on validity")
    result = {
        "fit_s": [s for part in passes for s in part["fit_s"]],
        "sample_s": [s for part in passes for s in part["sample_s"]],
        "kg_validity": passes[0]["kg_validity"],
    }
    fit_s = stats.trimmed_mean(result["fit_s"])
    rows_per_s = SAMPLE_ROWS / stats.trimmed_mean(result["sample_s"])
    out = common.Outcome(tally)
    out.gate = {
        "setup_s": (setup_s, "s"),
        "ok_share": (tally.ok_share, "share"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
        "kg_validity": (result["kg_validity"], "share"),
        "op_ms": (fit_s * 1000.0, "ms"),
        "rows_per_s": (rows_per_s, "rows/s"),
    }
    out.name("setup_s", setup_s, "s", n=len(setups))
    out.name("fit_s", fit_s, "s", n=len(result["fit_s"]), epochs=EPOCHS, rows=ROWS)
    out.name(
        "sample_rows_per_s",
        rows_per_s,
        "rows/s",
        n=len(result["sample_s"]),
        rows_per_call=SAMPLE_ROWS,
    )
    out.name("kg_validity", result["kg_validity"], "share", n=SAMPLE_ROWS)
    return out


def trace(seed: int, seconds: float, out_dir) -> common.Outcome:
    """An untraced pass, then the same pass traced; per-layer metrics from the second."""
    tally = stats.Tally()
    bundle = _setup()
    plain = _pass(bundle, seed, seconds / 2, tally, None)
    tracer = tracing.Tracer()
    restore = layers.install(tracer, layers.TRAINING)
    try:
        traced = _pass(bundle, seed, seconds / 2, tally, tracer)
    finally:
        restore()
    out = common.Outcome(tally, spans=tracer.spans)
    out.layers = layers.span_metrics(tracer.spans)
    out.layers["core.fit_prep_s"] = layers.fit_prep_s(tracer.spans)
    plain_s = stats.median(plain["fit_s"])
    overhead_s = stats.median(traced["fit_s"]) - plain_s
    out.layers["trace.overhead_ms"] = overhead_s * 1000.0
    out.layers["trace.overhead_share"] = overhead_s / plain_s
    return out


def _main() -> None:
    parser = argparse.ArgumentParser(description="one measured train pass (JSON on stdout)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    args = parser.parse_args()
    tally = stats.Tally()
    result = _pass(_setup(), args.seed, args.budget, tally, None)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    _main()
