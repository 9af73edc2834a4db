"""Which public functions each layer is timed through, and the per-layer metrics.

A traced run patches the functions below (see :func:`tracing.patch`), so
a span's name is the metric's name without its unit suffix.  Every traced
run reports every metric in :func:`metric_names`; a layer a workload does
not run reads 0.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Callable

from perfbench import stats, tracing

#: ``(module:owner, attribute, span name)``; owner "" patches a module global.
#: Module globals are patched where the caller looks them up.
TRAINING = [
    ("repro.core.synthesizer:KiNETGAN", "fit", "core.fit"),
    ("repro.core.synthesizer:KiNETGAN", "sample", "core.sample"),
    ("repro.core.trainer:KiNETGANStep", "step", "core.step"),
    ("repro.core.trainer:KiNETGANTrainer", "generate_matrix", "core.generate_matrix"),
    ("repro.core.generator:ConditionalGenerator", "forward", "core.generator.forward"),
    ("repro.core.generator:ConditionalGenerator", "backward", "core.generator.backward"),
    ("repro.core.discriminator:DataDiscriminator", "forward", "core.discriminator.forward"),
    ("repro.core.discriminator:DataDiscriminator", "backward", "core.discriminator.backward"),
    (
        "repro.core.kg_discriminator:KnowledgeGuidedDiscriminator",
        "train_step",
        "core.kg.train_step",
    ),
    (
        "repro.core.kg_discriminator:KnowledgeGuidedDiscriminator",
        "generator_loss_and_grad",
        "core.kg.generator_grad",
    ),
    (
        "repro.core.kg_discriminator:KnowledgeGuidedDiscriminator",
        "valid_set_loss_and_grad",
        "core.kg.generator_grad",
    ),
    (
        "repro.core.kg_discriminator:KnowledgeGuidedDiscriminator",
        "hard_scores",
        "core.kg.hard_scores",
    ),
    (
        "repro.core.kg_discriminator:KnowledgeGuidedDiscriminator",
        "validity_rate",
        "knowledge.validity_rate",
    ),
    ("repro.core.trainer:", "condition_penalty", "core.condition_penalty"),
    ("repro.neural.optimizers:Adam", "step", "neural.adam.step"),
    ("repro.tabular.sampler:ConditionSampler", "sample", "tabular.sampler.sample"),
    (
        "repro.tabular.sampler:ConditionSampler",
        "empirical_conditions",
        "tabular.sampler.empirical_conditions",
    ),
    ("repro.tabular.transformer:DataTransformer", "fit", "tabular.transformer.fit"),
    ("repro.tabular.transformer:DataTransformer", "harden", "tabular.transformer.harden"),
    (
        "repro.tabular.transformer:DataTransformer",
        "inverse_transform",
        "tabular.transformer.inverse_transform",
    ),
    ("repro.knowledge.reasoner:KGReasoner", "validity_mask", "knowledge.reasoner.validity_mask"),
]

FEDERATED = [
    ("repro.federated.kinetgan:FederatedKiNETGAN", "run_round", "federated.round"),
    ("repro.runtime.executor:Executor", "install", "runtime.install"),
    ("repro.runtime.executor:ProcessExecutor", "install", "runtime.install"),
    ("repro.federated.parameters:StateCodec", "encode", "federated.codec.encode"),
    ("repro.federated.parameters:StateCodec", "decode", "federated.codec.decode"),
    ("repro.federated.parameters:StateCodec", "decode_into", "federated.codec.decode"),
    (
        "repro.federated.kinetgan:FederatedKiNETGANSite",
        "trainer_state",
        "federated.site.trainer_state",
    ),
    (
        "repro.federated.kinetgan:FederatedKiNETGANSite",
        "load_trainer_state",
        "federated.site.load_trainer_state",
    ),
    ("repro.federated.kinetgan:FederatedKiNETGANSite", "set_state", "federated.site.set_state"),
    ("repro.federated.kinetgan:", "weighted_average", "federated.aggregate"),
    ("repro.federated.dp:DPFedAvgMechanism", "clip_update", "federated.dp.clip"),
    ("repro.federated.dp:DPFedAvgMechanism", "noise_average", "federated.dp.noise"),
    ("repro.federated.dp:DPFedAvgMechanism", "epsilon", "federated.dp.epsilon"),
]

#: Server side, patched inside the launched server process.  ``attrs``
#: record the request seed so the parent can join server spans to the
#: client request that caused them.
SERVER = [
    ("repro.serve.server:_Handler", "do_POST", "serve.handler", None),
    (
        "repro.serve.server:SamplingHTTPServer",
        "admit",
        "serve.admit",
        lambda self, body: {"seed": body.get("seed")},
    ),
    (
        "repro.serve.server:SamplingHTTPServer",
        "await_result",
        "serve.await_result",
        lambda self, admitted: {"seed": admitted.seed},
    ),
    (
        "repro.serve.server:ServingPool",
        "sample_batch",
        "serve.pool.sample_batch",
        lambda self, requests, timeout=None: {"requests": len(requests)},
    ),
    (
        "repro.serve.server:",
        "_pool_sample_task",
        "serve.model.sample",
        lambda payload: {"seed": payload[3]},
    ),
    ("repro.serve.server:", "table_to_wire", "serve.wire.encode", None),
    ("repro.core.generator:ConditionalGenerator", "forward", "core.generator.forward", None),
    (
        "repro.tabular.sampler:ConditionSampler",
        "empirical_conditions",
        "tabular.sampler.empirical_conditions",
        None,
    ),
    ("repro.tabular.transformer:DataTransformer", "harden", "tabular.transformer.harden", None),
    (
        "repro.tabular.transformer:DataTransformer",
        "inverse_transform",
        "tabular.transformer.inverse_transform",
        None,
    ),
]


def _owner(spec: str):
    module_name, _, owner = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, owner) if owner else module


def install(tracer: tracing.Tracer, specs: list[tuple]) -> Callable[[], None]:
    """Patch every spec; returns one callable undoing all of them."""
    undo = []
    for spec in specs:
        owner_spec, attr, name = spec[:3]
        attrs = spec[3] if len(spec) > 3 else None
        undo.append(tracing.patch(_owner(owner_spec), attr, tracer, name, attrs))

    def restore() -> None:
        for fn in reversed(undo):
            fn()

    return restore


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
#: Spans reported as p50 (in the unit), ``.calls`` and ``.share`` of the
#: end-to-end time (self time over end-to-end).  ``per_parent`` sums the
#: calls under one parent first (two functions form one KG generator term
#: per step); ``self`` uses self time for the p50 (the socket is what is
#: left of a request's wait once the server handler is taken out);
#: ``container`` spans only hold other spans, so only their share is
#: reported; ``no_calls`` drops a count another metric already gives.
SPANS = {
    "core.fit": ("s", {"container": True}),
    "core.sample": ("ms", {"container": True}),
    "core.step": ("ms", {}),
    "core.generate_matrix": ("ms", {"container": True}),
    "core.generator.forward": ("ms", {}),
    "core.generator.backward": ("ms", {"no_calls": True}),
    "core.discriminator.forward": ("ms", {}),
    "core.discriminator.backward": ("ms", {"no_calls": True}),
    "core.kg.train_step": ("ms", {}),
    "core.kg.generator_grad": ("ms", {"per_parent": True}),
    "core.kg.hard_scores": ("s", {}),
    "core.condition_penalty": ("ms", {}),
    "neural.adam.step": ("ms", {}),
    "tabular.sampler.sample": ("ms", {}),
    "tabular.sampler.empirical_conditions": ("ms", {}),
    "tabular.transformer.fit": ("s", {}),
    "tabular.transformer.harden": ("ms", {}),
    "tabular.transformer.inverse_transform": ("ms", {}),
    "knowledge.validity_rate": ("ms", {}),
    "knowledge.reasoner.validity_mask": ("ms", {}),
    "runtime.map_with_quorum": ("ms", {}),
    "runtime.install": ("ms", {}),
    "federated.round": ("ms", {"container": True}),
    "federated.site_round": ("ms", {"container": True}),
    "federated.codec.encode": ("ms", {}),
    "federated.codec.decode": ("ms", {}),
    "federated.site.trainer_state": ("ms", {}),
    "federated.site.load_trainer_state": ("ms", {}),
    "federated.site.set_state": ("ms", {}),
    "federated.aggregate": ("ms", {}),
    "federated.dp.clip": ("ms", {}),
    "federated.dp.noise": ("ms", {}),
    "federated.dp.epsilon": ("ms", {}),
    "serve.socket": ("ms", {"self": True}),
    "serve.wire.decode": ("ms", {}),
    "serve.handler": ("ms", {"container": True}),
    "serve.admit": ("ms", {}),
    "serve.await_result": ("ms", {}),
    "serve.pool.sample_batch": ("ms", {}),
    "serve.model.sample": ("ms", {}),
    "serve.wire.encode": ("ms", {}),
}

#: Single numbers a workload records itself, with their unit.
VALUES = {
    "core.fit_prep_s": "s",
    "serve.client.lateness_ms": "ms",
    "serve.client.ttfb_ms": "ms",
    "serve.client.read_ms": "ms",
    "serve.pool.batch_requests": "count",
    "serve.server.request_ms.phase_a": "ms",
    "serve.server.request_ms.phase_b": "ms",
    "serve.health.served": "count",
    "serve.health.rejected": "count",
    "serve.health.timeouts": "count",
    "runtime.tasks_dispatched": "count",
    "runtime.tasks_failed": "count",
    "runtime.retries": "count",
    "runtime.respawns": "count",
    "federated.sites_dropped": "count",
    "coverage": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}

_SCALE = {"ms": 1e-6, "s": 1e-9}


def _span_metric_names(span: str, unit: str, options: dict) -> dict[str, str]:
    """Metric name -> kind ("p50", "calls" or "share") for one span."""
    if options.get("container"):
        return {f"{span}.share": "share"}
    base = f"{span}_{unit}"
    names = {base: "p50"}
    if not options.get("no_calls"):
        names[f"{base}.calls"] = "calls"
    names[f"{base}.share"] = "share"
    return names


def metric_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    names: dict[str, str] = {}
    for span, (unit, options) in SPANS.items():
        for name, kind in _span_metric_names(span, unit, options).items():
            names[name] = {"p50": unit, "calls": "count", "share": "ratio"}[kind]
    names.update(VALUES)
    return names


def bench_root_ns(spans: list[dict]) -> int:
    """End-to-end time of a traced pass: the benchmark's own ``bench.*`` roots."""
    return sum(
        tracing.duration_ns(span)
        for span in spans
        if span["parent_id"] is None and span["name"].startswith("bench.")
    )


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """p50 / calls / share of every span in :data:`SPANS`, plus ``coverage``."""
    own = tracing.self_times(spans)
    roots = tracing.roots_of(spans)
    e2e = bench_root_ns(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    out: dict[str, float] = {}
    for name, (unit, options) in SPANS.items():
        group = by_name.get(name, [])
        if options.get("self"):
            samples = [own[s["span_id"]] for s in group]
        elif options.get("per_parent"):
            sums: dict[str, int] = defaultdict(int)
            for s in group:
                sums[s["parent_id"] or s["span_id"]] += tracing.duration_ns(s)
            samples = list(sums.values())
        else:
            samples = [tracing.duration_ns(s) for s in group]
        values = {
            "p50": stats.median(samples) * _SCALE[unit] if samples else 0.0,
            "calls": len(group),
            "share": sum(own[s["span_id"]] for s in group) / e2e if e2e else 0.0,
        }
        for metric, kind in _span_metric_names(name, unit, options).items():
            out[metric] = values[kind]
    covered = sum(
        own[s["span_id"]]
        for s in spans
        if not s["name"].startswith("bench.") and roots[s["span_id"]]["name"].startswith("bench.")
    )
    out["coverage"] = covered / e2e if e2e else 0.0
    return out


def fit_prep_s(spans: list[dict]) -> float:
    """``core.fit`` minus its steps and its per-epoch validity estimates (p50)."""
    excluded = {"core.step", "core.generate_matrix", "knowledge.validity_rate"}
    preps = []
    for fit in (s for s in spans if s["name"] == "core.fit"):
        inner = sum(
            tracing.duration_ns(s)
            for s in spans
            if s["parent_id"] == fit["span_id"] and s["name"] in excluded
        )
        preps.append(tracing.duration_ns(fit) - inner)
    return stats.median(preps) * 1e-9 if preps else 0.0


def install_dispatch(tracer: tracing.Tracer) -> Callable[[], None]:
    """Trace the federated round's dispatch and each site round it runs.

    ``map_with_quorum`` gets a span, and each mapped site round opens a
    child span under it.  The wrapped function is a closure, so this needs
    an executor that runs tasks in this process (the workload's serial one).
    """
    from repro.federated import kinetgan

    original = kinetgan.map_with_quorum

    def traced(executor, fn, payloads, ids, **kwargs):
        with tracer.span("runtime.map_with_quorum"):
            parent = tracer.current()

            def site_round(payload):
                with tracer.span("federated.site_round", parent=parent):
                    return fn(payload)

            return original(executor, site_round, payloads, ids, **kwargs)

    kinetgan.map_with_quorum = traced
    return lambda: setattr(kinetgan, "map_with_quorum", original)
