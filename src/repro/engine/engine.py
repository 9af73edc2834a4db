"""The :class:`TrainingEngine` epoch/step loop."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine.callbacks import Callback, CallbackList, History
from repro.engine.seeding import seeded_rng
from repro.engine.steps import TrainStep
from repro.obs import span

__all__ = ["TrainingEngine"]


class TrainingEngine:
    """Drives a :class:`TrainStep` for a fixed number of epochs.

    The engine owns everything the per-model loops used to duplicate:

    * the seeded RNG (either handed in, so a caller can interleave model
      construction and training on one stream, or derived from ``seed``);
    * the batch count per epoch (``max(1, n_rows // batch_size)`` unless the
      step's ``begin_epoch`` overrides it, as shuffled full-pass steps do);
    * averaging per-step metrics into per-epoch metrics;
    * callback dispatch and cooperative early stopping via
      :meth:`request_stop`.

    ``run()`` returns the engine's :class:`History`; ``epochs_run`` and
    ``stop_reason`` describe how the loop actually ended.  ``run()`` is
    single-use: when it returns (or raises) the engine drops the step and
    the caller's callbacks, which reach back into the model being trained,
    so a model that keeps its engine forms no reference cycle and is freed
    as soon as it is dropped.  ``history``, ``epochs_run`` and
    ``stop_reason`` stay readable.
    """

    def __init__(
        self,
        step: TrainStep,
        *,
        epochs: int,
        batch_size: int = 1,
        n_rows: int | None = None,
        steps_per_epoch: int | None = None,
        rng: np.random.Generator | None = None,
        seed: int | None = 0,
        callbacks: Iterable[Callback] = (),
    ) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if steps_per_epoch is not None and steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive")
        self.step = step
        self.epochs = epochs
        self.batch_size = batch_size
        if steps_per_epoch is not None:
            self.default_steps_per_epoch = steps_per_epoch
        elif n_rows is not None:
            self.default_steps_per_epoch = max(1, n_rows // batch_size)
        else:
            self.default_steps_per_epoch = 1
        self.rng = rng if rng is not None else seeded_rng(seed)
        self.history = History()
        self.callbacks = CallbackList([self.history, *callbacks])
        self.stop_training = False
        self.stop_reason: str | None = None
        self.epochs_run = 0

    # ------------------------------------------------------------------ #
    def request_stop(self, reason: str = "") -> None:
        """Ask the engine to stop after the current epoch (callback API)."""
        self.stop_training = True
        self.stop_reason = reason or None

    def run(self) -> History:
        """Execute the loop and return the per-epoch metric history."""
        if self.step is None:
            raise RuntimeError("TrainingEngine.run() is single-use; build a new engine")
        try:
            self._run()
        finally:
            self.step = None
            self.callbacks = CallbackList([self.history])
        return self.history

    def _run(self) -> None:
        self.stop_training = False
        self.stop_reason = None
        self.epochs_run = 0
        self.callbacks.on_train_begin(self)
        # Spans are recorded at epoch granularity only: when tracing is
        # disabled each span() call costs one branch, and the per-batch
        # inner loop stays untouched either way.
        with span("engine.run", epochs=self.epochs):
            for epoch in range(self.epochs):
                with span("engine.epoch", epoch=epoch):
                    self.callbacks.on_epoch_begin(self, epoch)
                    declared = self.step.begin_epoch(self.rng, epoch)
                    n_steps = declared if declared is not None else self.default_steps_per_epoch
                    totals: dict[str, float] = {}
                    for batch_index in range(n_steps):
                        metrics = self.step.step(self.rng, batch_index)
                        for name, value in metrics.items():
                            totals[name] = totals.get(name, 0.0) + float(value)
                    epoch_metrics = {name: value / n_steps for name, value in totals.items()}
                    self.epochs_run = epoch + 1
                    self.callbacks.on_epoch_end(self, epoch, epoch_metrics)
                if self.stop_training:
                    break
        self.callbacks.on_train_end(self)
