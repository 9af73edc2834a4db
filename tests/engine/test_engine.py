"""Unit tests for the shared training engine: loop mechanics, callback
ordering, early stopping, checkpointing and the supervised step."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    Callback,
    Checkpointer,
    EarlyStopping,
    PeriodicLogger,
    RecordMetric,
    SupervisedStep,
    TrainingEngine,
    TrainStep,
    load_checkpoint,
    save_checkpoint,
    standard_callbacks,
)
from repro.neural.layers import Dense
from repro.neural.losses import CrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import SGD


class ScriptedStep(TrainStep):
    """Returns a pre-scripted loss per epoch and counts every call."""

    def __init__(self, losses_by_epoch, steps_override=None):
        self.losses = losses_by_epoch
        self.steps_override = steps_override
        self.epoch = 0
        self.begin_calls = 0
        self.step_calls = 0

    def begin_epoch(self, rng, epoch):
        self.epoch = epoch
        self.begin_calls += 1
        return self.steps_override

    def step(self, rng, batch_index):
        self.step_calls += 1
        return {"loss": float(self.losses[self.epoch])}


class EventRecorder(Callback):
    def __init__(self, log, name):
        self.log = log
        self.name = name

    def on_train_begin(self, engine):
        self.log.append((self.name, "train_begin"))

    def on_epoch_begin(self, engine, epoch):
        self.log.append((self.name, "epoch_begin", epoch))

    def on_epoch_end(self, engine, epoch, metrics):
        self.log.append((self.name, "epoch_end", epoch))

    def on_train_end(self, engine):
        self.log.append((self.name, "train_end"))


class TestLoopMechanics:
    def test_default_steps_per_epoch_from_rows(self):
        step = ScriptedStep([1.0] * 3)
        TrainingEngine(step, epochs=3, batch_size=4, n_rows=10).run()
        assert step.step_calls == 3 * (10 // 4)

    def test_begin_epoch_can_override_step_count(self):
        step = ScriptedStep([1.0] * 2, steps_override=5)
        TrainingEngine(step, epochs=2, batch_size=4, n_rows=100).run()
        assert step.step_calls == 10

    def test_minimum_one_step_per_epoch(self):
        step = ScriptedStep([1.0])
        TrainingEngine(step, epochs=1, batch_size=128, n_rows=10).run()
        assert step.step_calls == 1

    def test_metrics_averaged_over_steps(self):
        class VaryingStep(TrainStep):
            def __init__(self):
                self.values = iter([1.0, 3.0])

            def step(self, rng, batch_index):
                return {"loss": next(self.values)}

        engine = TrainingEngine(VaryingStep(), epochs=1, steps_per_epoch=2)
        history = engine.run()
        assert history.metrics["loss"] == [2.0]

    def test_history_records_every_epoch_and_last(self):
        step = ScriptedStep([3.0, 2.0, 1.0])
        history = TrainingEngine(step, epochs=3, steps_per_epoch=1).run()
        assert history.metrics["loss"] == [3.0, 2.0, 1.0]
        assert history.epochs == 3
        assert history.last() == {"loss": 1.0}

    def test_run_is_single_use_and_releases_the_step(self):
        step = ScriptedStep([1.0, 2.0])
        recorder = EventRecorder([], "r")
        engine = TrainingEngine(step, epochs=2, steps_per_epoch=1, callbacks=[recorder])
        engine.run()
        assert engine.step is None
        assert recorder not in engine.callbacks.callbacks
        assert (engine.epochs_run, engine.history.metrics["loss"]) == (2, [1.0, 2.0])
        with pytest.raises(RuntimeError, match="single-use"):
            engine.run()

    def test_invalid_arguments_rejected(self):
        step = ScriptedStep([1.0])
        with pytest.raises(ValueError):
            TrainingEngine(step, epochs=0)
        with pytest.raises(ValueError):
            TrainingEngine(step, epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainingEngine(step, epochs=1, steps_per_epoch=0)


class TestCallbackOrdering:
    def test_hooks_fire_in_loop_order(self):
        log = []
        step = ScriptedStep([1.0, 1.0])
        TrainingEngine(
            step, epochs=2, steps_per_epoch=1, callbacks=[EventRecorder(log, "a")]
        ).run()
        assert [event[:2] for event in log] == [
            ("a", "train_begin"),
            ("a", "epoch_begin"),
            ("a", "epoch_end"),
            ("a", "epoch_begin"),
            ("a", "epoch_end"),
            ("a", "train_end"),
        ]

    def test_callbacks_dispatch_in_registration_order(self):
        log = []
        step = ScriptedStep([1.0])
        TrainingEngine(
            step,
            epochs=1,
            steps_per_epoch=1,
            callbacks=[EventRecorder(log, "first"), EventRecorder(log, "second")],
        ).run()
        epoch_end_order = [name for name, event, *_ in log if event == "epoch_end"]
        assert epoch_end_order == ["first", "second"]

    def test_record_metric_mirrors_external_list(self):
        trace: list[float] = []
        step = ScriptedStep([2.0, 4.0])
        TrainingEngine(
            step, epochs=2, steps_per_epoch=1, callbacks=[RecordMetric(trace, "loss")]
        ).run()
        assert trace == [2.0, 4.0]

    def test_periodic_logger_respects_log_every(self):
        lines = []
        step = ScriptedStep([1.0] * 4)
        TrainingEngine(
            step,
            epochs=4,
            steps_per_epoch=1,
            callbacks=[PeriodicLogger(log_every=2, prefix="[x]", printer=lines.append)],
        ).run()
        assert len(lines) == 2
        assert lines[0].startswith("[x] epoch 2/4")
        assert "loss=1.000" in lines[0]


class TestEarlyStopping:
    def test_stops_at_the_right_epoch(self):
        # best at epoch 1 (0.9); epochs 2 and 3 do not improve -> stop at 3.
        step = ScriptedStep([1.0, 0.9, 0.95, 0.96, 0.5, 0.4])
        stopper = EarlyStopping(monitor="loss", patience=2)
        engine = TrainingEngine(
            step, epochs=6, steps_per_epoch=1, callbacks=[stopper]
        )
        engine.run()
        assert stopper.stopped_epoch == 3
        assert engine.epochs_run == 4
        assert engine.stop_reason is not None

    def test_improvement_resets_patience(self):
        step = ScriptedStep([1.0, 0.99, 0.98, 0.97, 0.96, 0.95])
        stopper = EarlyStopping(monitor="loss", patience=2)
        engine = TrainingEngine(step, epochs=6, steps_per_epoch=1, callbacks=[stopper])
        engine.run()
        assert stopper.stopped_epoch is None
        assert engine.epochs_run == 6

    def test_min_delta_requires_material_improvement(self):
        step = ScriptedStep([1.0, 0.999, 0.998])
        stopper = EarlyStopping(monitor="loss", patience=1, min_delta=0.1)
        engine = TrainingEngine(step, epochs=3, steps_per_epoch=1, callbacks=[stopper])
        engine.run()
        assert engine.epochs_run == 2

    def test_missing_monitor_is_ignored(self):
        step = ScriptedStep([1.0, 1.0, 1.0])
        stopper = EarlyStopping(monitor="not_a_metric", patience=1)
        engine = TrainingEngine(step, epochs=3, steps_per_epoch=1, callbacks=[stopper])
        engine.run()
        assert engine.epochs_run == 3

    def test_request_stop_breaks_loop(self):
        class StopAtOne(Callback):
            def on_epoch_end(self, engine, epoch, metrics):
                if epoch == 1:
                    engine.request_stop("manual")

        step = ScriptedStep([1.0] * 5)
        engine = TrainingEngine(step, epochs=5, steps_per_epoch=1, callbacks=[StopAtOne()])
        engine.run()
        assert engine.epochs_run == 2
        assert engine.stop_reason == "manual"


class _NetworkStep(TrainStep):
    def __init__(self, network):
        self.network = network

    def step(self, rng, batch_index):
        return {"loss": 0.0}

    def checkpoint_targets(self):
        return {"model": self.network}


class TestCheckpointing:
    def test_save_load_round_trip_restores_outputs(self, tmp_path):
        rng = np.random.default_rng(0)
        network = Sequential([Dense(4, 3, rng=rng), Dense(3, 2, rng=rng)])
        step = _NetworkStep(network)
        x = rng.normal(size=(5, 4))
        before = network.forward(x, training=False)

        save_checkpoint(step, tmp_path)
        for param, _ in network.parameters():
            param += 1.0
        assert not np.allclose(network.forward(x, training=False), before)
        load_checkpoint(step, tmp_path)
        np.testing.assert_array_equal(network.forward(x, training=False), before)

    def test_checkpointer_writes_final_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        step = _NetworkStep(Sequential([Dense(2, 2, rng=rng)]))
        checkpointer = Checkpointer(tmp_path / "ckpt", every=2)
        TrainingEngine(
            step, epochs=3, steps_per_epoch=1, callbacks=[checkpointer]
        ).run()
        assert (tmp_path / "ckpt" / "model.npz").exists()

    def test_stepless_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(ScriptedStep([1.0]), tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        step = _NetworkStep(Sequential([Dense(2, 2, rng=rng)]))
        with pytest.raises(FileNotFoundError):
            load_checkpoint(step, tmp_path)


class TestStandardCallbacks:
    def test_defaults_produce_no_callbacks(self):
        assert standard_callbacks() == []

    def test_knobs_attach_the_right_callbacks(self, tmp_path):
        callbacks = standard_callbacks(
            verbose=True, log_every=5, patience=2, checkpoint_dir=tmp_path
        )
        kinds = [type(callback) for callback in callbacks]
        assert kinds == [PeriodicLogger, EarlyStopping, Checkpointer]
        assert callbacks[0].log_every == 5
        assert callbacks[1].patience == 2


class TestSupervisedStep:
    def _toy_problem(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(120, 4))
        labels = (features[:, 0] + features[:, 1] > 0).astype(int)
        model = Sequential([Dense(4, 2, rng=rng)])
        return model, features, labels

    def test_full_shuffled_pass_reduces_loss(self):
        model, features, labels = self._toy_problem()
        step = SupervisedStep(
            model=model,
            loss_fn=CrossEntropy(),
            optimizer=SGD(model.parameters(), lr=0.5),
            features=features,
            labels=labels,
            batch_size=32,
        )
        history = TrainingEngine(step, epochs=10, batch_size=32, n_rows=120).run()
        assert history.metrics["loss"][-1] < history.metrics["loss"][0]
        # ceil(120 / 32) = 4 batches per epoch, declared by begin_epoch.
        assert step.begin_epoch(np.random.default_rng(0), 0) == 4

    def test_grad_hook_runs_every_step(self):
        model, features, labels = self._toy_problem()
        calls = []
        step = SupervisedStep(
            model=model,
            loss_fn=CrossEntropy(),
            optimizer=SGD(model.parameters(), lr=0.1),
            features=features,
            labels=labels,
            batch_size=64,
            grad_hook=lambda m: calls.append(m),
        )
        TrainingEngine(step, epochs=2, batch_size=64, n_rows=120).run()
        assert len(calls) == 2 * 2  # ceil(120/64) = 2 batches x 2 epochs
