"""Training-loop benchmarks: epoch wall-clock, step allocations, codec copies.

Measures the flat-arena neural runtime against a *seed replica* -- the
pre-change training hot path, replayed bit-identically by monkey-patching
the handful of methods the arena work rewrote back to their original
forms (and disabling arena consolidation).  Both variants therefore run in
the same process on the same data, and because every rewrite preserved rng
streams and elementwise op order exactly, they produce bit-identical
models; only the time and allocation profiles differ.  Results land in
``BENCH_training.json`` at the repository root so future PRs have a
trajectory to compare against.

Metrics:

* ``kinetgan_epoch`` -- seconds per KiNETGAN training epoch (step-level:
  an epoch's worth of consecutive ``KiNETGANStep.step`` calls), current
  runtime vs the seed replica, interleaved min-of-reps.  The speedup is
  the gated number: epoch timing on a shared 1-core runner carries a few
  percent of process noise, which the smoke tolerance absorbs.
* ``step_latency`` -- the same measurement expressed as ms per training
  step at the benchmark batch size.
* ``step_allocations`` / ``step_allocations_large_batch`` -- steady-state
  tracemalloc peak of the *network-core* step the arena subsystem owns:
  ``Sequential.forward`` / ``backward``, the fused optimizer step and
  ``zero_grad`` on the discriminator network, at the training batch size
  and at batch 1024.  Every allocation inside that boundary is one the
  arena/workspace rewrite targeted, so the ratio is gated.  Two wider
  peaks are recorded for context but not gated on a ratio:
  ``neural_step_allocations`` (generator + discriminator + BCE + both
  optimizers -- its peak is set by the generated batch and its gradient,
  which must escape the step and so stay freshly allocated) and
  ``full_step_allocations`` (the complete ``KiNETGANStep``, which adds KG
  scoring and sampler work whose allocations are rng-stream-bound and
  identical on both sides).
* ``codec_roundtrip`` -- ``StateCodec.encode`` / ``decode_into`` on the
  fitted generator's arena-backed state: asserts the single-copy fast path
  engages (``flat_view`` detected) and compares per-op time against the
  per-key path on an equivalent non-contiguous state.

Run directly (``python -m benchmarks.bench_training``) or through
``python -m benchmarks.run --suite training``.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

import repro.core.kg_discriminator as _kg
import repro.core.trainer as _trainer
import repro.neural.layers as _layers
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.trainer import KiNETGANStep
from repro.datasets import load_lab_iot
from repro.engine import seeded_rng
from repro.federated.parameters import StateCodec
from repro.neural.arena import disable_consolidation

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "1500"))
BENCH_BATCH = 64
EPOCH_GROUPS = 6
EPOCH_REPS = 5
LARGE_BATCH = 1024


def bench_config(epochs: int = 1, seed: int = 0, dtype: str = "float64") -> KiNETGANConfig:
    """The configuration both variants train under.

    Batch 64 keeps the knowledge-discriminator share of the step close to
    what the paper's experiments run (the default 64 corruption negatives
    per batch), so the measurement exercises the whole hot path rather
    than just the dense kernels.
    """
    return KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=epochs,
        batch_size=BENCH_BATCH,
        lambda_knowledge=2.0,
        seed=seed,
        dtype=dtype,
    )


# --------------------------------------------------------------------------- #
# The seed replica: the pre-arena training hot path, bit-identical
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def seed_replica():
    """Replay the pre-change training hot path inside this process.

    Every patched method is the original (pre-arena) implementation; rng
    draws, elementwise op order and memory layouts match the rewritten
    forms exactly, so a fit under this context produces bit-identical
    parameters and history -- the replica differs only in temporaries,
    copies and per-key loops.  Arena consolidation is disabled for the
    duration so freshly built networks use per-tensor parameters and the
    unfused optimizer path, as before the change.
    """
    import repro.core.generator as _generator
    import repro.knowledge.reasoner as _reasoner
    import repro.knowledge.validator as _validator
    import repro.neural.losses as _losses
    from collections.abc import Mapping

    from repro.knowledge.reasoner import _numeric_column
    from repro.tabular.table import Table, factorize_values

    saved = {
        "dense_fwd": _layers.Dense.forward, "dense_bwd": _layers.Dense.backward,
        "relu_fwd": _layers.ReLU.forward, "relu_bwd": _layers.ReLU.backward,
        "lrelu_fwd": _layers.LeakyReLU.forward, "lrelu_bwd": _layers.LeakyReLU.backward,
        "bn_fwd": _layers.BatchNorm.forward, "bn_bwd": _layers.BatchNorm.backward,
        "drop_fwd": _layers.Dropout.forward, "drop_bwd": _layers.Dropout.backward,
        "targets": _trainer.KiNETGANTrainer._targets,
        "step_init": _trainer.KiNETGANStep.__init__,
        "gen_step": _trainer.KiNETGANTrainer._generator_step,
        "valid_set": _kg.KnowledgeGuidedDiscriminator.valid_set_loss_and_grad,
        "train_step": _kg.KnowledgeGuidedDiscriminator.train_step,
        "hard_scores_matrix": _kg.KnowledgeGuidedDiscriminator.hard_scores_matrix,
        "bce_fwd": _losses.BinaryCrossEntropy.forward,
        "bce_bwd": _losses.BinaryCrossEntropy.backward,
        "tab_fwd": _generator.TabularOutputActivation.forward,
        "tab_bwd": _generator.TabularOutputActivation.backward,
        "validity_mask": _reasoner.KGReasoner.validity_mask,
        "record_scores": _validator.BatchValidator.record_scores,
    }

    _EPS = _losses._EPS
    _stable_sigmoid = _losses._stable_sigmoid

    def dense_fwd(self, x, training=True):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError("bad shape")
        self._cache_input = x
        out = x @ self.weight
        if self.use_bias:
            out += self.bias
        return out

    def dense_bwd(self, grad_output):
        x = self._cache_input
        self.grad_weight += x.T @ grad_output
        if self.use_bias:
            self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def relu_fwd(self, x, training=True):
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def relu_bwd(self, grad_output):
        return grad_output * self._mask

    def lrelu_fwd(self, x, training=True):
        self._mask = x > 0.0
        return np.where(self._mask, x, self.negative_slope * x)

    def lrelu_bwd(self, grad_output):
        return grad_output * np.where(self._mask, 1.0, self.negative_slope)

    def bn_fwd(self, x, training=True):
        if x.shape[1] != self.num_features:
            raise ValueError("bad shape")
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std, x - mean)
        return self.gamma * x_hat + self.beta

    def bn_bwd(self, grad_output):
        x_hat, inv_std, _centered = self._cache
        batch = grad_output.shape[0]
        self.grad_gamma += (grad_output * x_hat).sum(axis=0)
        self.grad_beta += grad_output.sum(axis=0)
        dx_hat = grad_output * self.gamma
        grad_input = (
            inv_std / batch
            * (batch * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0))
        )
        return grad_input

    def drop_fwd(self, x, training=True):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.uniform(size=x.shape) < keep) / keep
        return x * self._mask

    def drop_bwd(self, grad_output):
        if self._mask is None:
            return grad_output
        grad_input = grad_output * self._mask
        self._mask = None
        return grad_input

    def bce_fwd(self, prediction, target):
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError("shape mismatch")
        self._cache = (prediction, target)
        if self.from_logits:
            loss = np.maximum(prediction, 0) - prediction * target + np.log1p(
                np.exp(-np.abs(prediction))
            )
        else:
            p = np.clip(prediction, _EPS, 1.0 - _EPS)
            loss = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
        return float(loss.mean())

    def bce_bwd(self):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        prediction, target = self._cache
        n = prediction.size
        if self.from_logits:
            grad = (_stable_sigmoid(prediction) - target) / n
        else:
            p = np.clip(prediction, _EPS, 1.0 - _EPS)
            grad = (p - target) / (p * (1.0 - p)) / n
        return grad

    def tab_fwd(self, x, training=True):
        out = np.empty_like(x)
        tanh_cols = self._tanh_columns
        out[:, tanh_cols] = np.tanh(x[:, tanh_cols])
        layout = self._layout
        if layout.n_blocks:
            gathered = layout.gather(x)
            if training:
                uniform = self.rng.uniform(1e-12, 1 - 1e-12, size=gathered.shape)
                gathered = gathered - np.log(-np.log(uniform)) * self.tau
            layout.scatter(out, layout.softmax(gathered, tau=self.tau))
        self._cache = out if training else None
        return out

    def tab_bwd(self, grad_output):
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        out = self._cache
        grad_input = np.empty_like(grad_output)
        tanh_cols = self._tanh_columns
        grad_input[:, tanh_cols] = grad_output[:, tanh_cols] * (1.0 - out[:, tanh_cols] ** 2)
        layout = self._layout
        if layout.n_blocks:
            grad_soft = layout.softmax_backward(
                layout.gather(out), layout.gather(grad_output), tau=self.tau
            )
            layout.scatter(grad_input, grad_soft)
        self._cache = None
        return grad_input

    def targets(self, shape):
        return (np.ones(shape), np.zeros(shape))

    def step_init(self, trainer, real_matrix, table=None):
        self.trainer = trainer
        self.real_matrix = real_matrix
        self._kg_table = table
        self._kg_valid = None
        self._kg_columns = None

    def gen_step(self, config):
        from repro.core.losses import condition_penalty

        cond = self.sampler.sample(config.batch_size, self.rng)
        noise = self.rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = self.generator.forward(noise, cond.vector, training=True)

        logits_fake = self.discriminator.forward(fake, cond.vector, training=True)
        adv_loss = self._bce.forward(logits_fake, np.ones_like(logits_fake))
        grad_fake = self.discriminator.backward(self._bce.backward())
        self.discriminator.zero_grad()

        cond_loss, grad_cond = condition_penalty(fake, cond.vector, self.sampler, self.transformer)

        kg_loss = 0.0
        grad_kg = 0.0
        if self.kg_discriminator is not None and config.lambda_knowledge > 0:
            kg_loss, grad_kg = self.kg_discriminator.generator_loss_and_grad(fake)
            if config.use_valid_set_loss:
                vs_loss, grad_vs = self.kg_discriminator.valid_set_loss_and_grad(fake, cond)
                kg_loss += vs_loss
                grad_kg = grad_kg + grad_vs

        total_grad = (
            grad_fake
            + config.lambda_condition * grad_cond
            + config.lambda_knowledge * grad_kg
        )
        self.generator.zero_grad()
        self.generator.backward(total_grad)
        self._opt_g.step()
        return adv_loss, cond_loss, kg_loss

    def valid_set(self, fake_matrix, condition_values):
        from repro.tabular.sampler import ConditionBatch

        grad = np.zeros_like(fake_matrix)
        if isinstance(condition_values, ConditionBatch):
            if len(condition_values) != fake_matrix.shape[0]:
                raise ValueError("condition_values length does not match the fake batch")
            try:
                events = condition_values.column_values(self._event_column)
            except KeyError:
                events = np.asarray(
                    [values.get(self._event_column) for values in condition_values.values],
                    dtype=object,
                )
        else:
            if len(condition_values) != fake_matrix.shape[0]:
                raise ValueError("condition_values length does not match the fake batch")
            events = np.asarray(
                [values.get(self._event_column) for values in condition_values],
                dtype=object,
            )

        schema = self.transformer.schema
        total_loss = 0.0
        total_terms = 0
        eps = 1e-6
        event_codes, event_names = factorize_values(events)
        event_rows = [
            np.nonzero(event_codes == event_id)[0] for event_id in range(len(event_names))
        ]
        for column in self.kg_columns:
            if column == self._event_column or not schema.column(column).is_categorical:
                continue
            info = self.transformer.column_info(column)
            block = np.clip(fake_matrix[:, info.start : info.end], eps, 1.0)
            columns_global = np.arange(info.start, info.end)
            for event_id, event_name in enumerate(event_names):
                if event_name is None:
                    continue
                mask = self._valid_mask(column, str(event_name))
                if mask is None:
                    continue
                rows = event_rows[event_id]
                mass = np.clip(block[rows][:, mask].sum(axis=1), eps, 1.0)
                total_loss += float(-np.log(mass).sum())
                grad[rows[:, None], columns_global[mask][None, :]] += -1.0 / mass[:, None]
                total_terms += len(rows)
        if total_terms == 0:
            return 0.0, grad
        grad /= total_terms
        return total_loss / total_terms, grad

    def corrupt_records(self, records):
        corrupted = []
        schema = self.transformer.schema
        categorical_kg = [name for name in self.kg_columns if schema.column(name).is_categorical]
        continuous_kg = [name for name in self.kg_columns if schema.column(name).is_continuous]
        for record in records:
            clone = dict(record)
            if categorical_kg and (not continuous_kg or self.rng.uniform() < 0.7):
                column = categorical_kg[self.rng.integers(0, len(categorical_kg))]
                categories = schema.column(column).categories
                clone[column] = categories[self.rng.integers(0, len(categories))]
            elif continuous_kg:
                column = continuous_kg[self.rng.integers(0, len(continuous_kg))]
                spec = schema.column(column)
                low = spec.minimum if spec.minimum is not None else 0.0
                high = spec.maximum if spec.maximum is not None else 65535.0
                clone[column] = float(self.rng.uniform(low, high))
            corrupted.append(clone)
        return corrupted

    def kg_train_step(self, real_table, real_matrix, fake_matrix, negatives=64,
                      real_valid=None, rows=None, columns=None):
        if self.head is None or self._optimizer is None:
            return 0.0
        records = real_table.to_records()
        real_valid = self.validator.table_scores(real_table)
        pool = corrupt_records(self, records[: max(negatives, 1)])
        pool_scores = self.validator.record_scores(pool)
        invalid_records = [r for r, s in zip(pool, pool_scores) if s == 0.0]

        inputs = [real_matrix]
        targets_ = [real_valid[:, None]]
        if invalid_records:
            invalid_table = Table.from_records(self.transformer.schema, invalid_records)
            invalid_matrix = self.transformer.transform(invalid_table, rng=self.rng)
            inputs.append(invalid_matrix)
            targets_.append(np.zeros((len(invalid_records), 1)))
        if fake_matrix is not None and len(fake_matrix):
            fake_valid = self.hard_scores_matrix(fake_matrix)
            inputs.append(fake_matrix)
            targets_.append(fake_valid[:, None])

        batch = np.concatenate(inputs, axis=0)
        target = np.concatenate(targets_, axis=0)
        logits = self.head.forward(self._extract(batch), training=True)
        loss = self._loss.forward(logits, target)
        self.head.zero_grad()
        self.head.backward(self._loss.backward())
        self._optimizer.step()
        return loss

    def hard_scores_matrix(self, matrix, batch_size=0):
        if batch_size <= 0 or len(matrix) <= batch_size:
            return self.hard_scores(self.transformer.inverse_transform(matrix))
        chunks = [
            self.hard_scores(self.transformer.inverse_transform(matrix[start : start + batch_size]))
            for start in range(0, len(matrix), batch_size)
        ]
        return np.concatenate(chunks)

    def validity_mask(self, table_or_columns):
        if isinstance(table_or_columns, Mapping):
            names = list(table_or_columns.keys())
            get_column = table_or_columns.__getitem__
            n_rows = len(table_or_columns[names[0]]) if names else 0
        else:
            names = list(table_or_columns.schema.names)
            get_column = table_or_columns.column
            n_rows = table_or_columns.n_rows

        fm = self.field_map
        event_column = fm["event_type"]
        valid = np.ones(n_rows, dtype=bool)
        if event_column not in names or n_rows == 0:
            return valid

        event_codes, event_names = factorize_values(
            np.asarray(get_column(event_column), dtype=object)
        )

        membership_roles = ("protocol", "source_ip", "destination_ip")
        factorized = {}
        for role in membership_roles:
            column = fm.get(role)
            if column in names:
                factorized[role] = factorize_values(
                    np.asarray(get_column(column), dtype=object)
                )

        numeric = {}
        for role in ("destination_port", "source_port"):
            column = fm.get(role)
            if column in names:
                numeric[role] = _numeric_column(get_column(column))

        for event_id, event_name in enumerate(event_names):
            rows = np.nonzero(event_codes == event_id)[0]
            if event_name is None:
                continue
            constraints = self._constraints.get(event_name)
            if constraints is None:
                valid[rows] = False
                continue
            for role in membership_roles:
                allowed = getattr(
                    constraints,
                    {"protocol": "protocols", "source_ip": "source_ips",
                     "destination_ip": "destination_ips"}[role],
                )
                if not allowed or role not in factorized:
                    continue
                codes, uniques = factorized[role]
                lookup = np.fromiter((u in allowed for u in uniques), dtype=bool,
                                     count=len(uniques))
                valid[rows] &= lookup[codes[rows]]
            if "destination_port" in numeric:
                ports, parseable = numeric["destination_port"]
                ok = parseable[rows].copy()
                here = np.trunc(ports[rows][ok]).astype(np.int64)
                if constraints.destination_ports or constraints.destination_port_range is not None:
                    port_ok = np.isin(here, list(constraints.destination_ports))
                    if constraints.destination_port_range is not None:
                        low, high = constraints.destination_port_range
                        port_ok |= (here >= low) & (here <= high)
                    ok[np.nonzero(ok)[0][~port_ok]] = False
                valid[rows] &= ok
            if "source_port" in numeric and constraints.source_port_range is not None:
                ports, parseable = numeric["source_port"]
                ok = parseable[rows].copy()
                here = np.trunc(ports[rows][ok]).astype(np.int64)
                low, high = constraints.source_port_range
                in_range = (here >= low) & (here <= high)
                ok[np.nonzero(ok)[0][~in_range]] = False
                valid[rows] &= ok
        return valid

    def record_scores(self, records):
        scores = np.empty(len(records), dtype=np.float64)
        for i, record in enumerate(records):
            scores[i] = 1.0 if self.reasoner.is_valid(record) else 0.0
        return scores

    _layers.Dense.forward = dense_fwd
    _layers.Dense.backward = dense_bwd
    _layers.ReLU.forward = relu_fwd
    _layers.ReLU.backward = relu_bwd
    _layers.LeakyReLU.forward = lrelu_fwd
    _layers.LeakyReLU.backward = lrelu_bwd
    _layers.BatchNorm.forward = bn_fwd
    _layers.BatchNorm.backward = bn_bwd
    _layers.Dropout.forward = drop_fwd
    _layers.Dropout.backward = drop_bwd
    _trainer.KiNETGANTrainer._targets = targets
    _trainer.KiNETGANStep.__init__ = step_init
    _trainer.KiNETGANTrainer._generator_step = gen_step
    _kg.KnowledgeGuidedDiscriminator.valid_set_loss_and_grad = valid_set
    _kg.KnowledgeGuidedDiscriminator.train_step = kg_train_step
    _kg.KnowledgeGuidedDiscriminator.hard_scores_matrix = hard_scores_matrix
    _losses.BinaryCrossEntropy.forward = bce_fwd
    _losses.BinaryCrossEntropy.backward = bce_bwd
    _generator.TabularOutputActivation.forward = tab_fwd
    _generator.TabularOutputActivation.backward = tab_bwd
    _reasoner.KGReasoner.validity_mask = validity_mask
    _validator.BatchValidator.record_scores = record_scores
    try:
        with disable_consolidation():
            yield
    finally:
        _layers.Dense.forward = saved["dense_fwd"]
        _layers.Dense.backward = saved["dense_bwd"]
        _layers.ReLU.forward = saved["relu_fwd"]
        _layers.ReLU.backward = saved["relu_bwd"]
        _layers.LeakyReLU.forward = saved["lrelu_fwd"]
        _layers.LeakyReLU.backward = saved["lrelu_bwd"]
        _layers.BatchNorm.forward = saved["bn_fwd"]
        _layers.BatchNorm.backward = saved["bn_bwd"]
        _layers.Dropout.forward = saved["drop_fwd"]
        _layers.Dropout.backward = saved["drop_bwd"]
        _trainer.KiNETGANTrainer._targets = saved["targets"]
        _trainer.KiNETGANStep.__init__ = saved["step_init"]
        _trainer.KiNETGANTrainer._generator_step = saved["gen_step"]
        _kg.KnowledgeGuidedDiscriminator.valid_set_loss_and_grad = saved["valid_set"]
        _kg.KnowledgeGuidedDiscriminator.train_step = saved["train_step"]
        _kg.KnowledgeGuidedDiscriminator.hard_scores_matrix = saved["hard_scores_matrix"]
        _losses.BinaryCrossEntropy.forward = saved["bce_fwd"]
        _losses.BinaryCrossEntropy.backward = saved["bce_bwd"]
        _generator.TabularOutputActivation.forward = saved["tab_fwd"]
        _generator.TabularOutputActivation.backward = saved["tab_bwd"]
        _reasoner.KGReasoner.validity_mask = saved["validity_mask"]
        _validator.BatchValidator.record_scores = saved["record_scores"]


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def _build_step(bundle, dtype: str = "float64") -> KiNETGANStep:
    """A ready-to-step trainer (one warm-up epoch fits all the machinery)."""
    model = KiNETGAN(bench_config(epochs=1, dtype=dtype))
    model.fit(bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns)
    trainer = model.trainer
    real_matrix = trainer.transformer.transform(bundle.table, rng=seeded_rng(123))
    return KiNETGANStep(trainer, real_matrix, table=bundle.table)


def _time_epochs(step: KiNETGANStep, n_rows: int, reps: int) -> float:
    """Min seconds over ``reps`` epochs' worth of consecutive steps."""
    steps_per_epoch = max(n_rows // BENCH_BATCH, 1)
    rng = seeded_rng(7)
    for i in range(steps_per_epoch):  # warm-up epoch
        step.step(rng, i)
    best = np.inf
    for _ in range(reps):
        start = time.perf_counter()
        for i in range(steps_per_epoch):
            step.step(rng, i)
        best = min(best, time.perf_counter() - start)
    return best


def measure_epoch(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                  reps: int = EPOCH_REPS) -> dict:
    """Epoch wall-clock, current runtime vs seed replica, interleaved."""
    bundle = load_lab_iot(n_records=rows, seed=0)
    step_now = _build_step(bundle)
    with seed_replica():
        step_seed = _build_step(bundle)
    now_times: list[float] = []
    seed_times: list[float] = []
    for _ in range(groups):  # interleave so load spikes hit both variants
        now_times.append(_time_epochs(step_now, rows, reps))
        with seed_replica():
            seed_times.append(_time_epochs(step_seed, rows, reps))
    now, seed = min(now_times), min(seed_times)
    steps_per_epoch = max(rows // BENCH_BATCH, 1)
    return {
        "rows": rows,
        "batch_size": BENCH_BATCH,
        "steps_per_epoch": steps_per_epoch,
        "now_seconds": round(now, 4),
        "seed_seconds": round(seed, 4),
        "now_step_ms": round(now / steps_per_epoch * 1000, 3),
        "seed_step_ms": round(seed / steps_per_epoch * 1000, 3),
        "speedup": round(seed / now, 2),
    }


def _network_step_peak(trainer, batch: int) -> int:
    """Steady-state tracemalloc peak of one network-core step.

    Forward, backward, fused optimizer step and ``zero_grad`` on the
    discriminator ``Sequential`` -- the exact boundary the arena and the
    layer workspaces own, with no escaping outputs.
    """
    net = trainer.discriminator.network
    rng = np.random.default_rng(5)
    dim = trainer.transformer.output_dim + trainer.generator.condition_dim
    # The bare Sequential expects inputs in its own dtype (the model
    # wrappers cast at their boundary); a float64 network sees the same
    # bits as before.
    x = rng.normal(size=(batch, dim)).astype(net.dtype)
    grad = np.full((batch, 1), 1.0 / batch, dtype=net.dtype)

    def once() -> None:
        net.forward(x, training=True)
        net.backward(grad)
        trainer._opt_d.step()
        net.zero_grad()

    for _ in range(5):  # settle workspaces and rng-draw shapes
        once()
    best: int | None = None
    for _ in range(6):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        once()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def _neural_step_peak(trainer, batch: int) -> int:
    """Steady-state tracemalloc peak of one neural training step."""
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(batch, trainer.config.embedding_dim))
    cond = np.zeros((batch, trainer.generator.condition_dim))
    ones = np.ones((batch, 1))

    def once() -> None:
        fake = trainer.generator.forward(noise, cond, training=True)
        logits = trainer.discriminator.forward(fake, cond, training=True)
        trainer._bce.forward(logits, ones)
        grad_fake = trainer.discriminator.backward(trainer._bce.backward())
        trainer.discriminator.zero_grad()
        trainer.generator.zero_grad()
        trainer.generator.backward(grad_fake)
        trainer._opt_g.step()
        trainer._opt_d.step()

    for _ in range(5):  # settle workspaces and rng-draw shapes
        once()
    best: int | None = None
    for _ in range(6):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        once()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def _full_step_peak(step: KiNETGANStep) -> int:
    """Steady-state tracemalloc peak of one complete training step."""
    rng = seeded_rng(7)
    for i in range(10):
        step.step(rng, i)
    best: int | None = None
    for i in range(10, 16):
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        step.step(rng, i)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        delta = peak - base
        best = delta if best is None else min(best, delta)
    return int(best)


def measure_allocations(rows: int = BENCH_ROWS) -> dict[str, dict]:
    """Tracemalloc peaks per step, current runtime vs seed replica."""
    bundle = load_lab_iot(n_records=rows, seed=0)
    step_now = _build_step(bundle)
    now_small = _network_step_peak(step_now.trainer, BENCH_BATCH)
    now_large = _network_step_peak(step_now.trainer, LARGE_BATCH)
    now_neural = _neural_step_peak(step_now.trainer, BENCH_BATCH)
    now_full = _full_step_peak(step_now)
    with seed_replica():
        step_seed = _build_step(bundle)
        seed_small = _network_step_peak(step_seed.trainer, BENCH_BATCH)
        seed_large = _network_step_peak(step_seed.trainer, LARGE_BATCH)
        seed_neural = _neural_step_peak(step_seed.trainer, BENCH_BATCH)
        seed_full = _full_step_peak(step_seed)
    return {
        "step_allocations": {
            "batch_size": BENCH_BATCH,
            "now_bytes": now_small,
            "seed_bytes": seed_small,
            "speedup": round(seed_small / now_small, 1),
        },
        "step_allocations_large_batch": {
            "batch_size": LARGE_BATCH,
            "now_bytes": now_large,
            "seed_bytes": seed_large,
            "speedup": round(seed_large / now_large, 1),
        },
        "neural_step_allocations": {
            "batch_size": BENCH_BATCH,
            "now_bytes": now_neural,
            "seed_bytes": seed_neural,
            "ratio": round(seed_neural / now_neural, 1),
        },
        "full_step_allocations": {
            "batch_size": BENCH_BATCH,
            "now_bytes": now_full,
            "seed_bytes": seed_full,
            "ratio": round(seed_full / now_full, 1),
        },
    }


def measure_step_allocations(rows: int = BENCH_ROWS, batch: int = BENCH_BATCH) -> dict:
    """The gated network-core allocation probe alone (for the smoke gate)."""
    bundle = load_lab_iot(n_records=rows, seed=0)
    now = _network_step_peak(_build_step(bundle).trainer, batch)
    with seed_replica():
        seed = _network_step_peak(_build_step(bundle).trainer, batch)
    return {
        "batch_size": batch,
        "now_bytes": now,
        "seed_bytes": seed,
        "speedup": round(seed / now, 1),
    }


def measure_precision(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                      reps: int = EPOCH_REPS) -> dict[str, dict]:
    """The float32 compute tier against the float64 default, interleaved.

    Both engines run the *current* runtime (arena + fused optimizers); the
    only difference is ``KiNETGANConfig.dtype``, so the comparison isolates
    what halving the element width buys on this machine: narrower BLAS
    kernels, half the memory traffic through the workspace buffers, and
    half the bytes in the network-core step's surviving temporaries.
    """
    bundle = load_lab_iot(n_records=rows, seed=0)
    step_f64 = _build_step(bundle)
    step_f32 = _build_step(bundle, dtype="float32")
    f64_times: list[float] = []
    f32_times: list[float] = []
    for _ in range(groups):  # interleave so load spikes hit both variants
        f64_times.append(_time_epochs(step_f64, rows, reps))
        f32_times.append(_time_epochs(step_f32, rows, reps))
    f64_s, f32_s = min(f64_times), min(f32_times)
    steps_per_epoch = max(rows // BENCH_BATCH, 1)
    alloc_f64 = _network_step_peak(step_f64.trainer, LARGE_BATCH)
    alloc_f32 = _network_step_peak(step_f32.trainer, LARGE_BATCH)
    return {
        "float32_epoch": {
            "rows": rows,
            "batch_size": BENCH_BATCH,
            "steps_per_epoch": steps_per_epoch,
            "float64_seconds": round(f64_s, 4),
            "float32_seconds": round(f32_s, 4),
            "speedup": round(f64_s / f32_s, 2),
        },
        "float32_step_latency": {
            "batch_size": BENCH_BATCH,
            "float64_ms": round(f64_s / steps_per_epoch * 1000, 3),
            "float32_ms": round(f32_s / steps_per_epoch * 1000, 3),
            "speedup": round(f64_s / f32_s, 2),
        },
        "float32_step_allocations": {
            "batch_size": LARGE_BATCH,
            "float64_bytes": alloc_f64,
            "float32_bytes": alloc_f32,
            "speedup": round(alloc_f64 / alloc_f32, 2),
        },
    }


def measure_codec(rows: int = BENCH_ROWS) -> dict:
    """StateCodec round-trip on an arena-backed network state.

    The contiguous state must take the single-copy fast path
    (``_flat_view`` detected); the per-key path is measured on the same
    values copied into standalone arrays, as a decoded broadcast payload
    would look without the arena.
    """
    bundle = load_lab_iot(n_records=min(rows, 600), seed=0)
    model = KiNETGAN(bench_config(epochs=1))
    model.fit(bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns)
    network = model.trainer.generator.network
    state = network.state_dict()
    codec = StateCodec(state)
    fast_path = codec._flat_view(state) is not None
    scattered = {key: np.array(value) for key, value in state.items()}
    vector = codec.encode(state)
    out = np.empty_like(vector)

    def best_of(fn, loops: int = 200) -> float:
        best = np.inf
        for _ in range(loops):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    contiguous_encode = best_of(lambda: codec.encode(state, out=out))
    scattered_encode = best_of(lambda: codec.encode(scattered, out=out))
    contiguous_decode = best_of(lambda: codec.decode_into(vector, state))
    scattered_decode = best_of(lambda: codec.decode_into(vector, scattered))
    return {
        "parameters": codec.dim,
        "keys": len(codec.keys),
        "single_copy_fast_path": fast_path,
        "encode_us": round(contiguous_encode * 1e6, 1),
        "encode_per_key_us": round(scattered_encode * 1e6, 1),
        "decode_us": round(contiguous_decode * 1e6, 1),
        "decode_per_key_us": round(scattered_decode * 1e6, 1),
        "speedup": round(
            (scattered_encode + scattered_decode)
            / (contiguous_encode + contiguous_decode),
            2,
        ),
    }


# --------------------------------------------------------------------------- #
# Document assembly
# --------------------------------------------------------------------------- #
def run_training_bench(rows: int = BENCH_ROWS, groups: int = EPOCH_GROUPS,
                       reps: int = EPOCH_REPS) -> dict:
    """Measure all training probes and return the trajectory document."""
    epoch = measure_epoch(rows, groups, reps)
    metrics: dict[str, dict] = {"kinetgan_epoch": epoch}
    metrics["step_latency"] = {
        "batch_size": epoch["batch_size"],
        "now_ms": epoch["now_step_ms"],
        "seed_ms": epoch["seed_step_ms"],
        "speedup": epoch["speedup"],
    }
    metrics.update(measure_allocations(rows))
    metrics.update(measure_precision(rows, groups, reps))
    metrics["codec_roundtrip"] = measure_codec(rows)
    return {
        "benchmark": "training",
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "dataset": "lab_iot",
            "rows": rows,
            "batch_size": BENCH_BATCH,
            "embedding_dim": 32,
            "hidden_dims": [64, 64],
            "epoch_groups": groups,
            "epoch_reps": reps,
        },
        "metrics": metrics,
        "notes": (
            "Both variants run in one process over the same data; the seed "
            "replica replays the pre-arena hot path bit-identically "
            "(identical rng streams and op order), so the comparison "
            "isolates the runtime change. kinetgan_epoch carries a few "
            "percent of process noise on a shared 1-core runner -- the "
            "smoke tolerance absorbs it. step_allocations covers the "
            "network-core step the arena subsystem owns (Sequential "
            "forward/backward, fused optimizer, zero_grad); the wider "
            "neural_step_allocations peak is set by the generated batch "
            "and its gradient, which escape the step by design, and "
            "full_step_allocations adds KG scoring and sampler work whose "
            "allocations are rng-stream-bound on both sides -- both are "
            "context, not gated."
        ),
    }


def write_results(document: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def format_results(document: dict) -> str:
    metrics = document["metrics"]
    epoch = metrics["kinetgan_epoch"]
    alloc = metrics["step_allocations"]
    alloc_large = metrics["step_allocations_large_batch"]
    neural = metrics["neural_step_allocations"]
    full = metrics["full_step_allocations"]
    codec = metrics["codec_roundtrip"]
    f32_epoch = metrics["float32_epoch"]
    f32_alloc = metrics["float32_step_allocations"]
    lines = [
        f"[bench:training] lab-IoT KiNETGAN, {epoch['rows']} rows, batch {epoch['batch_size']}",
        (
            f"  kinetgan_epoch           seed {epoch['seed_seconds']:.3f}s"
            f" -> now {epoch['now_seconds']:.3f}s  ({epoch['speedup']}x,"
            f" {epoch['steps_per_epoch']} steps/epoch)"
        ),
        (
            f"  step_latency             seed {epoch['seed_step_ms']:.2f} ms"
            f" -> now {epoch['now_step_ms']:.2f} ms per step"
        ),
        (
            f"  step_allocations         seed {alloc['seed_bytes']:,} B"
            f" -> now {alloc['now_bytes']:,} B  ({alloc['speedup']}x less,"
            f" batch {alloc['batch_size']})"
        ),
        (
            f"  ... at batch {alloc_large['batch_size']}        seed"
            f" {alloc_large['seed_bytes']:,} B"
            f" -> now {alloc_large['now_bytes']:,} B  ({alloc_large['speedup']}x less)"
        ),
        (
            f"  neural_step_allocations  seed {neural['seed_bytes']:,} B"
            f" -> now {neural['now_bytes']:,} B  ({neural['ratio']}x; not gated)"
        ),
        (
            f"  full_step_allocations    seed {full['seed_bytes']:,} B"
            f" -> now {full['now_bytes']:,} B  ({full['ratio']}x; not gated)"
        ),
        (
            f"  float32_epoch            f64 {f32_epoch['float64_seconds']:.3f}s"
            f" -> f32 {f32_epoch['float32_seconds']:.3f}s  ({f32_epoch['speedup']}x)"
        ),
        (
            f"  float32_step_allocations f64 {f32_alloc['float64_bytes']:,} B"
            f" -> f32 {f32_alloc['float32_bytes']:,} B  ({f32_alloc['speedup']}x less,"
            f" batch {f32_alloc['batch_size']})"
        ),
        (
            "  codec_roundtrip          fast path"
            f" {'on' if codec['single_copy_fast_path'] else 'OFF'};"
            f" encode {codec['encode_per_key_us']:.0f} -> {codec['encode_us']:.0f} us,"
            f" decode {codec['decode_per_key_us']:.0f} -> {codec['decode_us']:.0f} us"
            f"  ({codec['speedup']}x, {codec['parameters']:,} params / {codec['keys']} keys)"
        ),
    ]
    return "\n".join(lines)


def main() -> None:
    document = run_training_bench()
    path = write_results(document)
    print(format_results(document))
    print(f"[bench:training] wrote {path}")


if __name__ == "__main__":
    main()
