"""The KiNETGAN training loop, expressed as an engine train step.

One training step follows the paper's framework (figure 1):

1. **Discriminator step(s)** -- sample a condition batch (training-by-
   sampling), fetch matching real rows, generate fakes under the same
   conditions, and update the real/fake discriminator ``D_M`` with binary
   cross entropy.
2. **Knowledge head step** -- update the learned head of ``D_KG`` on valid
   combinations (real rows, KG-enumerated combinations) versus invalid ones
   (corrupted rows, generated rows the exact KG query rejects).
3. **Generator step** -- generate a fresh fake batch and descend the sum of
   (a) the non-saturating adversarial loss through ``D_M``, (b) the
   knowledge loss through ``D_KG``'s head weighted by ``lambda_knowledge``
   (equation 3/4), and (c) the condition cross-entropy penalty weighted by
   ``lambda_condition`` (section III-A-2).

The epoch/batch iteration, metric averaging, periodic logging, early
stopping and checkpointing all live in :class:`repro.engine.TrainingEngine`;
this module only contributes the model-specific :class:`KiNETGANStep` and
keeps the public :class:`TrainingHistory` record format stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.config import KiNETGANConfig
from repro.core.discriminator import DataDiscriminator
from repro.core.generator import ConditionalGenerator
from repro.core.kg_discriminator import KnowledgeGuidedDiscriminator
from repro.core.losses import condition_penalty
from repro.engine import Callback, TrainingEngine, TrainStep, seeded_rng
from repro.knowledge.reasoner import KGReasoner
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.tabular.sampler import ConditionSampler
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

__all__ = ["TrainingHistory", "KiNETGANStep", "KiNETGANTrainer"]


@dataclass
class TrainingHistory:
    """Per-epoch loss traces recorded during training."""

    generator_loss: list[float] = field(default_factory=list)
    discriminator_loss: list[float] = field(default_factory=list)
    condition_loss: list[float] = field(default_factory=list)
    knowledge_loss: list[float] = field(default_factory=list)
    validity_rate: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.generator_loss)

    def last(self) -> dict[str, float]:
        """The most recent epoch's losses as a dict (empty if untrained)."""
        if not self.generator_loss:
            return {}
        return {
            "generator_loss": self.generator_loss[-1],
            "discriminator_loss": self.discriminator_loss[-1],
            "condition_loss": self.condition_loss[-1],
            "knowledge_loss": self.knowledge_loss[-1],
            "validity_rate": self.validity_rate[-1] if self.validity_rate else float("nan"),
        }


class _HistoryAdapter(Callback):
    """Mirrors the engine's epoch metrics into the public history lists."""

    def __init__(self, history: TrainingHistory) -> None:
        self.history = history

    def on_epoch_end(self, engine: TrainingEngine, epoch: int, metrics: dict) -> None:
        self.history.discriminator_loss.append(metrics["discriminator_loss"])
        self.history.generator_loss.append(metrics["generator_loss"])
        self.history.condition_loss.append(metrics["condition_loss"])
        self.history.knowledge_loss.append(metrics["knowledge_loss"])


class KiNETGANStep(TrainStep):
    """One KiNETGAN mini-batch update (paper figure 1), engine-pluggable."""

    def __init__(
        self,
        trainer: "KiNETGANTrainer",
        real_matrix: np.ndarray,
        table: Table | None = None,
    ) -> None:
        self.trainer = trainer
        self.real_matrix = real_matrix
        # Real rows never change across a fit, so their exact KG validity
        # and their category codes are computed once here instead of once
        # per step; each step then gathers by the sampled row indices.  The
        # validator is deterministic (no rng draws), so this is
        # bit-identical to the per-step query.
        self._kg_table = table
        self._kg_valid: np.ndarray | None = None
        self._kg_columns: dict[str, np.ndarray] | None = None
        kg = trainer.kg_discriminator
        if kg is not None and kg.head is not None and table is not None:
            self._kg_valid = kg.hard_scores(table)
            self._kg_columns = trainer.transformer.column_arrays(table)

    def step(self, rng: np.random.Generator, batch_index: int) -> dict[str, float]:
        trainer = self.trainer
        config = trainer.config
        d_loss = 0.0
        fake_for_kg = None
        cond = None
        for _ in range(config.discriminator_steps):
            cond = trainer.sampler.sample(config.batch_size, rng)
            real = self.real_matrix[cond.row_indices]
            noise = rng.normal(size=(config.batch_size, config.embedding_dim))
            fake = trainer.generator.forward(noise, cond.vector, training=True)
            d_loss += trainer._discriminator_step(real, fake, cond.vector)
            fake_for_kg = fake
        d_loss /= config.discriminator_steps

        k_loss = 0.0
        if trainer.kg_discriminator is not None and cond is not None:
            if self._kg_valid is not None:
                # ``real`` is the last d-step's gather of the same indices,
                # so it is reused rather than gathered a second time.
                idx = cond.row_indices
                k_loss = trainer.kg_discriminator.train_step(
                    self._kg_table,
                    real,
                    fake_for_kg,
                    negatives=config.knowledge_negatives_per_batch,
                    real_valid=self._kg_valid[idx],
                    rows=idx,
                    columns=self._kg_columns,
                )
            else:
                k_loss = trainer.kg_discriminator.train_step(
                    trainer.sampler.real_batch(cond),
                    real,
                    fake_for_kg,
                    negatives=config.knowledge_negatives_per_batch,
                )

        g_loss, c_loss, kg_gen_loss = trainer._generator_step(config)
        return {
            "discriminator_loss": d_loss,
            "generator_loss": g_loss,
            "condition_loss": c_loss,
            "knowledge_loss": k_loss + kg_gen_loss,
        }

    def checkpoint_targets(self) -> dict[str, Sequential]:
        targets = {
            "generator": self.trainer.generator.network,
            "discriminator": self.trainer.discriminator.network,
        }
        kg = self.trainer.kg_discriminator
        if kg is not None and kg.head is not None:
            targets["kg_head"] = kg.head
        return targets


class KiNETGANTrainer:
    """Orchestrates KiNETGAN training over a fitted transformer and sampler."""

    def __init__(
        self,
        config: KiNETGANConfig,
        transformer: DataTransformer,
        sampler: ConditionSampler,
        reasoner: KGReasoner | None = None,
        generator: ConditionalGenerator | None = None,
        discriminator: DataDiscriminator | None = None,
    ) -> None:
        """``generator`` / ``discriminator`` may be supplied pre-built (the
        OCTGAN baseline injects ODE-augmented networks this way); by default
        the standard residual generator and MLP discriminator are created."""
        self.config = config
        self.transformer = transformer
        self.sampler = sampler
        self.rng = seeded_rng(config.seed)

        if generator is None:
            generator = ConditionalGenerator(
                noise_dim=config.embedding_dim,
                condition_dim=sampler.condition_dim,
                transformer=transformer,
                hidden_dims=config.generator_dims,
                gumbel_tau=config.gumbel_tau,
                rng=self.rng,
                dtype=config.np_dtype,
            )
        self.generator = generator
        if discriminator is None:
            discriminator = DataDiscriminator(
                data_dim=transformer.output_dim,
                condition_dim=sampler.condition_dim,
                hidden_dims=config.discriminator_dims,
                dropout=config.dropout,
                rng=self.rng,
                dtype=config.np_dtype,
            )
        self.discriminator = discriminator
        self.kg_discriminator: KnowledgeGuidedDiscriminator | None = None
        if reasoner is not None and config.use_knowledge_discriminator:
            self.kg_discriminator = KnowledgeGuidedDiscriminator(
                reasoner=reasoner,
                transformer=transformer,
                hidden_dims=config.knowledge_head_dims,
                learning_rate=config.discriminator_lr,
                learned_head=True,
                rng=self.rng,
                dtype=config.np_dtype,
            )

        self._opt_g = Adam(self.generator.parameters(), lr=config.generator_lr, betas=(0.5, 0.9))
        self._opt_d = Adam(
            self.discriminator.parameters(), lr=config.discriminator_lr, betas=(0.5, 0.9)
        )
        self._bce = BinaryCrossEntropy(from_logits=True)
        # Constant BCE target arrays, cached per logits shape: the three
        # discriminator/generator BCE terms per step would otherwise rebuild
        # identical ones/zeros batches thousands of times per fit.
        self._bce_targets: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        self.history = TrainingHistory()
        self.engine: TrainingEngine | None = None

    # ------------------------------------------------------------------ #
    def fit(self, table: Table) -> TrainingHistory:
        """Train on ``table`` (already the table the sampler was built from)."""
        config = self.config
        real_matrix = self.transformer.transform(table, rng=self.rng)
        step = KiNETGANStep(self, real_matrix, table=table)
        callbacks: list[Callback] = [_HistoryAdapter(self.history)]
        callbacks += config.engine_callbacks(
            prefix="[KiNETGAN]",
            labels={
                "discriminator_loss": "D",
                "generator_loss": "G",
                "condition_loss": "cond",
                "knowledge_loss": "KG",
            },
            extra=self._log_validity,
            monitor="generator_loss",
        )
        self.engine = TrainingEngine(
            step,
            epochs=config.epochs,
            batch_size=config.batch_size,
            n_rows=table.n_rows,
            rng=self.rng,
            callbacks=callbacks,
        )
        self.engine.run()
        return self.history

    def _log_validity(self, engine: TrainingEngine, epoch: int, metrics: dict) -> dict:
        """Extra metric hook for the engine logger: KG validity (recorded)."""
        validity = self._estimate_validity()
        self.history.validity_rate.append(validity)
        return {"validity": validity}

    # ------------------------------------------------------------------ #
    def _targets(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(ones, zeros)`` BCE target arrays for ``shape``.

        Built in the discriminator's dtype so the BCE loss (which follows
        its prediction's dtype) never re-casts them per step.
        """
        cached = self._bce_targets.get(shape)
        if cached is None:
            dtype = self.discriminator.network.dtype
            cached = (np.ones(shape, dtype=dtype), np.zeros(shape, dtype=dtype))
            self._bce_targets[shape] = cached
        return cached

    def _discriminator_step(
        self, real: np.ndarray, fake: np.ndarray, condition: np.ndarray
    ) -> float:
        self.discriminator.zero_grad()
        logits_real = self.discriminator.forward(real, condition, training=True)
        ones, zeros = self._targets(logits_real.shape)
        loss_real = self._bce.forward(logits_real, ones)
        self.discriminator.backward(self._bce.backward())
        logits_fake = self.discriminator.forward(fake, condition, training=True)
        loss_fake = self._bce.forward(logits_fake, zeros)
        self.discriminator.backward(self._bce.backward())
        self._opt_d.step()
        return loss_real + loss_fake

    def _generator_step(self, config: KiNETGANConfig) -> tuple[float, float, float]:
        cond = self.sampler.sample(config.batch_size, self.rng)
        noise = self.rng.normal(size=(config.batch_size, config.embedding_dim))
        fake = self.generator.forward(noise, cond.vector, training=True)

        # Adversarial (non-saturating) term through D_M.
        logits_fake = self.discriminator.forward(fake, cond.vector, training=True)
        ones, _zeros = self._targets(logits_fake.shape)
        adv_loss = self._bce.forward(logits_fake, ones)
        grad_fake = self.discriminator.backward(self._bce.backward())
        self.discriminator.zero_grad()

        # Condition penalty (section III-A-2).
        cond_loss, grad_cond = condition_penalty(fake, cond.vector, self.sampler, self.transformer)

        # Knowledge term through the learned head of D_KG (equation 3), plus
        # the exact valid-set penalty obtained by querying the KG with the
        # sampled condition values (section III-B-1).
        kg_loss = 0.0
        grad_kg: np.ndarray | float = 0.0
        if self.kg_discriminator is not None and config.lambda_knowledge > 0:
            kg_loss, grad_kg = self.kg_discriminator.generator_loss_and_grad(fake)
            if config.use_valid_set_loss:
                vs_loss, grad_vs = self.kg_discriminator.valid_set_loss_and_grad(
                    fake, cond
                )
                kg_loss += vs_loss
                grad_kg += grad_vs

        # ``grad_fake + lambda_c * grad_cond + lambda_k * grad_kg`` fused in
        # place through ``grad_cond`` (both penalty grads are freshly
        # allocated per call).  IEEE addition is commutative bitwise, so
        # accumulating left-to-right into the scaled condition grad matches
        # the reference expression exactly while dropping three batch-sized
        # temporaries per generator step.
        np.multiply(grad_cond, config.lambda_condition, out=grad_cond)
        grad_cond += grad_fake
        if isinstance(grad_kg, np.ndarray):
            np.multiply(grad_kg, config.lambda_knowledge, out=grad_kg)
            grad_cond += grad_kg
        else:
            grad_cond += config.lambda_knowledge * grad_kg
        total_grad = grad_cond
        self.generator.zero_grad()
        self.generator.backward(total_grad)
        self._opt_g.step()
        return adv_loss, cond_loss, kg_loss

    # ------------------------------------------------------------------ #
    def _estimate_validity(self, n: int = 256) -> float:
        """Fraction of freshly generated rows that satisfy the knowledge graph."""
        if self.kg_discriminator is None:
            return float("nan")
        matrix = self.generate_matrix(n)
        return self.kg_discriminator.validity_rate(matrix)

    def _batches(
        self, n: int, conditions: np.ndarray | None, rng: np.random.Generator | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The ``(noise, condition)`` chunks a generated batch of ``n`` rows is
        made of: the conditions are drawn first, then one normal draw per
        ``batch_size`` chunk, lazily as the chunks are consumed."""
        rng = rng if rng is not None else self.rng
        if conditions is None:
            conditions = self.sampler.empirical_conditions(n, rng)
        if conditions.shape[0] != n:
            raise ValueError("conditions batch size does not match n")
        batch_size = self.config.batch_size
        dim = self.config.embedding_dim
        return (
            (
                rng.normal(size=(min(batch_size, n - start), dim)),
                conditions[start : start + batch_size],
            )
            for start in range(0, n, batch_size)
        )

    def generate_codes(
        self,
        n: int,
        conditions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` rows as ``(values, winners)`` for ``DataTransformer.decode``.

        Draws from ``rng`` exactly as :meth:`generate_matrix` does, and
        decodes to the same rows as its hardened matrix, without the
        softmax or the one-hot (see :meth:`ConditionalGenerator.sample_codes`).
        """
        return self.generator.sample_codes(self._batches(n, conditions, rng), n)

    def generate_matrix(
        self,
        n: int,
        conditions: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        hard: bool = True,
    ) -> np.ndarray:
        """Generate ``n`` transformed rows (one-hot blocks hardened by default).

        The hard matrix is float64: the exact one-hots of the generator's
        softmax winners next to its tanh columns.
        """
        if not hard:
            outputs = [
                self.generator.forward(noise, condition, training=False)
                for noise, condition in self._batches(n, conditions, rng)
            ]
            return np.concatenate(outputs, axis=0)
        values, winners = self.generate_codes(n, conditions, rng)
        matrix = np.zeros((n, self.transformer.output_dim))
        tanh_cols = self.transformer.tanh_columns()
        matrix[:, tanh_cols] = values[:, tanh_cols]
        self.transformer.softmax_layout().scatter_one_hot(matrix, winners)
        return matrix
