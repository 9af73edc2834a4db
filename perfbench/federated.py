"""Workload ``federated``: DP-FedAvg rounds of KiNETGAN over four sites.

Chosen because it is the only workload where ``repro.runtime`` (dispatch,
install, round buffers, task counters) and ``repro.federated`` (codec,
aggregation, DP) run, around the same training step as ``train``.  The
first round installs the sites and codecs, so it counts as set-up.
"""

from __future__ import annotations

import contextlib
import math
import time

from perfbench import common, layers, stats, tracing

#: Coordinators built per run (each with its set-up round); ``setup_s``
#: is their median.
SETUPS = 5
SITES = 4
ROWS_PER_SITE = 600
#: Public reference rows the coordinator fits the shared transformer on.
REFERENCE_ROWS = 600
#: ``process:2`` is what the deployment would use, but with two OpenBLAS
#: threads per worker on two cores its round times swing too much from run
#: to run to gate (see README, known findings); the serial executor still
#: runs the runtime's dispatch, install and deadline paths.
EXECUTOR = "serial"
#: A per-site deadline turns on the runtime's resilient dispatch path,
#: whose task counters the traced run reads.
TASK_TIMEOUT_S = 120.0
#: Rounds per pass at least (a median needs ten rounds beyond it).  The KG
#: check runs on the pooled sample drawn right after this many rounds, so
#: the quality guard always sees the same amount of training.
MIN_ROUNDS = 40
#: One pooled sample of ``SAMPLE_ROWS`` is drawn after every
#: ``SAMPLE_EVERY`` rounds, so the sampling times cover the whole run
#: rather than one stretch of it.
SAMPLE_EVERY = 2
SAMPLE_ROWS = 10_000


def _config(seed: int):
    from repro.core import KiNETGANConfig

    return KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=1,
        batch_size=128,
        seed=seed,
        dtype="float64",
    )


def _data():
    """The sites' traffic: the loader's default seed, so every ``--seed``
    federates the same rows and only model, DP and sampling seeds vary."""
    from repro.datasets import load_lab_iot

    return load_lab_iot(n_records=REFERENCE_ROWS + SITES * ROWS_PER_SITE)


def _coordinator(bundle, seed: int):
    """Coordinator with its sites added and the set-up round run."""
    import numpy as np

    from repro.federated import DPFedAvgConfig, FederatedKiNETGAN

    fed = FederatedKiNETGAN(
        reference_table=bundle.table.head(REFERENCE_ROWS),
        config=_config(seed),
        catalog=bundle.catalog,
        condition_columns=bundle.condition_columns,
        # Noise small enough that 30+ rounds keep the generator usable; the
        # example's noise_multiplier=0.6 drives KG validity to 0 by round 30.
        dp_config=DPFedAvgConfig(clip_norm=1.0, noise_multiplier=0.02, delta=1e-5),
        seed=seed,
        executor=EXECUTOR,
        task_timeout=TASK_TIMEOUT_S,
    )
    for site in range(SITES):
        start = REFERENCE_ROWS + site * ROWS_PER_SITE
        rows = np.arange(start, start + ROWS_PER_SITE)
        fed.add_site(f"site-{site}", bundle.table.select_rows(rows))
    fed.run_round(local_epochs=1)
    return fed


def _round_ok(info) -> bool:
    return not info.dropped and info.epsilon is not None and math.isfinite(info.epsilon)


def _pass(fed, bundle, budget: float, tally: stats.Tally, tracer: tracing.Tracer | None) -> dict:
    """Rounds until ``budget`` seconds and at least :data:`MIN_ROUNDS`, with a
    pooled sample after every :data:`SAMPLE_EVERY` rounds; the KG check runs
    on the sample drawn after round :data:`MIN_ROUNDS`."""
    from repro.engine import sampling_rng

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    tally.record(_round_ok(fed.rounds[-1]), "set-up round dropped a site or lost epsilon")
    round_s: list[float] = []
    sample_s: list[float] = []
    started = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or time.perf_counter() - started < budget:
        start = time.perf_counter()
        with span("bench.round"):
            info = fed.run_round(local_epochs=1)
        round_s.append(time.perf_counter() - start)
        tally.record(_round_ok(info), f"round {info.round_index}: dropped {info.dropped}")
        if len(round_s) % SAMPLE_EVERY:
            continue
        start = time.perf_counter()
        with span("bench.sample"):
            table = fed.sample(SAMPLE_ROWS, rng=sampling_rng(fed.seed + len(sample_s)))
        sample_s.append(time.perf_counter() - start)
        tally.record(common.table_ok(table, SAMPLE_ROWS, bundle.schema), "pooled sample shape")
        if len(round_s) == MIN_ROUNDS:
            with span("bench.kg_check"):
                validity = common.kg_validity(fed.reasoner, table)
            tally.record(0.0 < validity <= 1.0, f"kg validity {validity}")
    return {
        "round_s": round_s,
        "sample_s": sample_s,
        "kg_validity": validity,
        "dropped": sum(len(r.dropped) for r in fed.rounds),
        "epsilon": fed.rounds[-1].epsilon,
    }


def measure(seed: int, seconds: float, out_dir) -> common.Outcome:
    tally = stats.Tally()
    bundle = _data()
    fed, setup_s, setups = common.timed_setups(
        lambda: _coordinator(bundle, seed), lambda f: f.close(), SETUPS
    )
    try:
        result = _pass(fed, bundle, seconds, tally, None)
    finally:
        fed.close()
    rounds_ms = [s * 1000.0 for s in result["round_s"]]
    summary = stats.summarize(rounds_ms)
    out = common.Outcome(tally)
    out.gate = {
        "setup_s": (setup_s, "s"),
        "ok_share": (tally.ok_share, "share"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
        "kg_validity": (result["kg_validity"], "share"),
        "op_ms": (stats.trimmed_mean(rounds_ms), "ms"),
        "rows_per_s": (SAMPLE_ROWS / stats.trimmed_mean(result["sample_s"]), "rows/s"),
    }
    out.name("setup_s", setup_s, "s", n=len(setups))
    out.name("round_ms_p50", summary["p50"], "ms", n=summary["n"])
    out.name("round_ms_trimmed_mean", out.gate["op_ms"][0], "ms", n=summary["n"], trim=stats.TRIM)
    out.name(
        "round_ms_p90",
        stats.percentile(rounds_ms, 90.0),
        "ms",
        n=summary["n"],
        highest_supported_pct=summary["tail_pct"],
        highest_supported=summary["tail"],
    )
    out.name("kg_validity", result["kg_validity"], "share", n=SAMPLE_ROWS)
    out.name("epsilon", result["epsilon"], "dp-epsilon")
    return out


def trace(seed: int, seconds: float, out_dir) -> common.Outcome:
    """An untraced pass, then a traced one on a fresh coordinator."""
    from repro.obs import default_registry

    tally = stats.Tally()
    bundle = _data()
    fed = _coordinator(bundle, seed)
    try:
        plain = _pass(fed, bundle, seconds / 2, tally, None)
    finally:
        fed.close()

    tracer = tracing.Tracer()
    before = _runtime_counts(default_registry())
    restore = layers.install(tracer, layers.TRAINING + layers.FEDERATED)
    restore_dispatch = layers.install_dispatch(tracer)
    try:
        with tracer.span("bench.setup_round"):
            fed = _coordinator(bundle, seed)
        try:
            traced = _pass(fed, bundle, seconds / 2, tally, tracer)
        finally:
            fed.close()
    finally:
        restore_dispatch()
        restore()
    after = _runtime_counts(default_registry())
    spans = tracer.spans
    out = common.Outcome(tally, spans=spans)
    out.layers = layers.span_metrics(spans)
    out.layers["core.fit_prep_s"] = layers.fit_prep_s(spans)
    out.layers.update({name: after[name] - before[name] for name in after})
    out.layers["federated.sites_dropped"] = traced["dropped"]
    plain_ms = stats.median(plain["round_s"]) * 1000.0
    overhead_ms = stats.median(traced["round_s"]) * 1000.0 - plain_ms
    out.layers["trace.overhead_ms"] = overhead_ms
    out.layers["trace.overhead_share"] = overhead_ms / plain_ms
    return out


def _runtime_counts(registry) -> dict[str, float]:
    """Task counters the runtime keeps in the process-wide registry."""
    families = {
        "runtime.tasks_dispatched": "repro_tasks_dispatched_total",
        "runtime.tasks_failed": "repro_tasks_failed_total",
        "runtime.retries": "repro_task_retries_total",
        "runtime.respawns": "repro_pool_respawns_total",
    }
    snapshot = registry.snapshot()
    return {
        name: sum(sample["value"] for sample in snapshot.get(family, {}).get("samples", []))
        for name, family in families.items()
    }
