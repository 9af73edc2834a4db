"""Executor parity: seeded runs must be bit-identical.

These tests are the acceptance gate of the execution plane: for every
multi-node layer (FedAvg server, federated NIDS simulation, distributed
synthetic-sharing simulation, federated KiNETGAN) a seeded run must produce
exactly the same global states and round histories -- not approximately,
bit for bit -- under every executor: serial, thread pool, process pool.

The baseline of each matrix is the serial run.  It is pinned to a committed
sha256 digest (:data:`DIGESTS`), recorded from the serial run of the
re-pickled payload/site transports that preceded the resident one, so the
single remaining transport is held to the old reference semantics.  A
digest is only comparable under the numpy and BLAS build it was recorded
with (:data:`RECORDED_ENVIRONMENT`); anywhere else the digest test fails
naming the mismatch and the digest it computed, so a new environment is
re-recorded deliberately rather than skipped.  At these sizes the
digests hold at 1 and 2 BLAS threads alike; a full-size fit does not,
because the BLAS thread count is an input of the determinism contract
(``docs/architecture.md``).

The contract is *per dtype* (``docs/precision.md``): the ``*Float32``
classes rerun the matrix with float32 engines against their own float32
serial baseline and digest -- float32 runs are not expected to match
float64 ones, but within a dtype every executor must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import IndependentSampler
from repro.core.config import KiNETGANConfig
from repro.distributed.simulation import DistributedNIDSSimulation
from repro.federated.client import FederatedClient
from repro.federated.kinetgan import FederatedKiNETGAN
from repro.federated.partition import label_skew_partition
from repro.federated.server import FederatedServer
from repro.federated.simulation import DetectorFactory, FederatedNIDSSimulation
from repro.runtime import FaultInjector, ProcessExecutor, ThreadExecutor
from repro.tabular.table import Table

#: Executor factories compared to the serial baseline.
MATRIX = [
    pytest.param(lambda: None, id="serial-resident"),
    pytest.param(lambda: ThreadExecutor(max_workers=2), id="thread-resident"),
    pytest.param(lambda: ProcessExecutor(max_workers=2), id="process-resident"),
]

#: The numpy / BLAS build the digests below were recorded with (the fields
#: ``perfbench/fingerprint.py`` records for the same purpose).
RECORDED_ENVIRONMENT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas",
    "blas_version": "0.3.31.188.0",
}

#: sha256 of each layer's serial result (see :func:`_digest`), per dtype.
DIGESTS = {
    "server": {
        "float64": "008c3c82634873191147d7724933229db2389e66c0964f976495e643fd5b2ec5",
        "float32": "a5773ef828b82d00dee3e60ed02434c63d538cb2d219bd149d4272a0129d4fc2",
    },
    "federated_simulation": {
        "float64": "6b514ba97097ec0afdda3f5e4ec9a7c90232163b8ad6988b408895f7369b5111",
        # Equal to float64's: the digest covers accuracies only, and every
        # prediction of these small float32 detectors agrees with float64's.
        "float32": "6b514ba97097ec0afdda3f5e4ec9a7c90232163b8ad6988b408895f7369b5111",
    },
    "distributed_simulation": {
        "float64": "1823af56be4109af1e37e8d638f63aed97788a9d9836764ae1fc5f4cb207f171",
        "float32": "7d7f6de63237682003bce16c6dac37f8acd768218170813e9c7f41213f282578",
    },
    "federated_kinetgan": {
        "float64": "77f034b15422c9116e640d790fc9eb4570d4246ecdfe5b60c5dbda502d4a8980",
        "float32": "1952af5cf87b044672e618e24232b48288f98f0e130a77477933d18de51bffbc",
    },
}


def _numeric_environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def _feed(hasher, value) -> None:
    """Hash ``value`` canonically: exact array bytes, sorted dict keys."""
    if isinstance(value, Table):
        value = [(name, value.column(name)) for name in value.schema.names]
    elif dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, np.ndarray) and value.dtype != object:
        hasher.update(f"array:{value.dtype.str}:{value.shape};".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.ndarray):
        _feed(hasher, value.tolist())
    elif isinstance(value, dict):
        hasher.update(f"dict:{len(value)};".encode())
        for key in sorted(value):
            _feed(hasher, key)
            _feed(hasher, value[key])
    elif isinstance(value, (list, tuple)):
        hasher.update(f"list:{len(value)};".encode())
        for item in value:
            _feed(hasher, item)
    else:
        if isinstance(value, np.generic):
            value = value.item()
        hasher.update(f"{type(value).__name__}:{value!r};".encode())


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    _feed(hasher, parts)
    return hasher.hexdigest()


def _assert_committed_digest(layer: str, dtype: str, *parts) -> None:
    digest = _digest(*parts)
    environment = _numeric_environment()
    if environment != RECORDED_ENVIRONMENT:
        pytest.fail(
            f"{layer}/{dtype}: committed digests were recorded under "
            f"{RECORDED_ENVIRONMENT}, this run has {environment}; computed digest "
            f"{digest} cannot be compared -- re-record DIGESTS for this build"
        )
    assert digest == DIGESTS[layer][dtype], (
        f"{layer}/{dtype}: serial result digest {digest} != committed "
        f"{DIGESTS[layer][dtype]}"
    )


def _crashing_process(task_id: int):
    """A 2-worker process pool whose worker crashes on one mid-run task."""
    executor = ProcessExecutor(max_workers=2)
    executor.install_faults(FaultInjector.crash_once(task_id=task_id))
    return executor


def _straggling_thread(task_id: int):
    """A 2-worker thread pool with one injected mid-run straggler.

    The injected delay (0.75s) exceeds the test policies' 0.25s deadline,
    so the worker abandons the attempt before the task body runs and the
    parent's replay is the only execution -- then recovery must be
    bit-identical to a fault-free run.
    """
    executor = ThreadExecutor(max_workers=2)
    executor.install_faults(FaultInjector.straggle_once(task_id=task_id, delay_seconds=0.75))
    return executor


#: Fault-injection entries of the recovery matrix: (executor factory,
#: task_timeout) pairs.  Task ids address "round r of k work units, slot s"
#: as r * k + s through the executor's global dispatch counter.
FAULT_MATRIX = [
    pytest.param(_crashing_process, None, id="process-crash-retry"),
    pytest.param(_straggling_thread, 0.25, id="thread-straggler-delay"),
]


def _assert_states_equal(expected: dict, actual: dict) -> None:
    assert set(expected) == set(actual)
    for key in expected:
        assert np.array_equal(expected[key], actual[key]), key


def _make_clients(n_clients: int, model_fn: DetectorFactory) -> list[FederatedClient]:
    rng = np.random.default_rng(0)
    clients = []
    for i in range(n_clients):
        features = rng.normal(size=(96, model_fn.n_features))
        labels = rng.integers(0, model_fn.n_classes, size=96)
        clients.append(
            FederatedClient(
                client_id=f"c{i}",
                features=features,
                labels=labels,
                model_fn=model_fn,
                learning_rate=0.05,
                batch_size=32,
                local_epochs=2,
                seed=i,
            )
        )
    return clients


class TestServerParity:
    DTYPE = "float64"

    @classmethod
    def _run(cls, executor):
        model_fn = DetectorFactory(
            n_features=5, n_classes=2, hidden_dims=(8,), seed=0, dtype=cls.DTYPE
        )
        with FederatedServer(
            model_fn, _make_clients(3, model_fn), seed=0, executor=executor
        ) as server:
            server.run(3)
            return server.global_state, server.history.rounds

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run(None)

    def test_serial_baseline_matches_committed_digest(self, baseline):
        _assert_committed_digest("server", self.DTYPE, *baseline)

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_state_and_history_bit_identical(self, baseline, executor_factory):
        state, rounds = self._run(executor_factory())
        _assert_states_equal(baseline[0], state)
        assert baseline[1] == rounds


class TestServerParityFloat32(TestServerParity):
    """The dtype axis of the parity contract (``docs/precision.md``).

    A float32 detector federation must be bit-identical across every
    executor against its *own* float32 serial baseline: the per-dtype RNG
    streams, the float32 codec transport and the float32 shared buffers all
    have to agree for this to hold.
    """

    DTYPE = "float32"

    def test_global_state_is_float32(self, baseline):
        state, _rounds = baseline
        assert {np.asarray(value).dtype for value in state.values()} == {
            np.dtype(np.float32)
        }


class _Float32DetectorSimulation(FederatedNIDSSimulation):
    """The federated NIDS simulation with float32 detectors: every detector
    it trains comes from this one factory."""

    def _model_fn(self, n_features: int, n_classes: int) -> DetectorFactory:
        return dataclasses.replace(super()._model_fn(n_features, n_classes), dtype="float32")


class TestFederatedSimulationParity:
    DTYPE = "float64"
    SIMULATION = FederatedNIDSSimulation

    @classmethod
    def _run(cls, bundle, executor):
        with cls.SIMULATION(
            bundle,
            num_clients=3,
            skew=0.5,
            hidden_dims=(8,),
            num_rounds=2,
            local_epochs=1,
            seed=0,
            executor=executor,
        ) as simulation:
            return simulation.run()

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None)

    def test_serial_baseline_matches_committed_digest(self, baseline):
        _assert_committed_digest(
            "federated_simulation",
            self.DTYPE,
            baseline.federated,
            baseline.centralised,
            baseline.local_only,
            baseline.round_accuracies,
            baseline.per_client_local,
        )

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_seeded_results_identical(self, baseline, lab_bundle_small, executor_factory):
        result = self._run(lab_bundle_small, executor_factory())
        assert baseline.federated == result.federated
        assert baseline.centralised == result.centralised
        assert baseline.local_only == result.local_only
        assert baseline.round_accuracies == result.round_accuracies
        assert baseline.per_client_local == result.per_client_local


class TestFederatedSimulationParityFloat32(TestFederatedSimulationParity):
    """Float32 detectors through the whole simulation -- local-only,
    federated and centralised training, and the server's evaluation and
    prediction -- bit-identical across executors against their own float32
    serial baseline."""

    DTYPE = "float32"
    SIMULATION = _Float32DetectorSimulation

    def test_detectors_are_float32(self, lab_bundle_small):
        simulation = self.SIMULATION(lab_bundle_small)
        assert simulation._model_fn(4, 2)().dtype == np.float32


#: A tiny KiNETGAN: two rounds of it exercise cross-round worker state.
KINETGAN_CONFIG = KiNETGANConfig(
    embedding_dim=8,
    generator_dims=(16,),
    discriminator_dims=(16,),
    epochs=1,
    batch_size=32,
    knowledge_negatives_per_batch=8,
    max_modes=3,
    seed=0,
)


class TestDistributedSimulationParity:
    DTYPE = "float64"

    @classmethod
    def _synthesis(cls) -> dict:
        """How nodes synthesize their shares (constructor keywords)."""
        return {"synthesizer_factory": lambda seed: IndependentSampler(seed=seed)}

    @classmethod
    def _run(cls, bundle, executor):
        with DistributedNIDSSimulation(
            bundle,
            num_nodes=3,
            non_iid_skew=0.5,
            seed=5,
            executor=executor,
            **cls._synthesis(),
        ) as simulation:
            return simulation.run(share_size=120)

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None)

    def test_serial_baseline_matches_committed_digest(self, baseline):
        _assert_committed_digest(
            "distributed_simulation",
            self.DTYPE,
            baseline.local_only,
            baseline.synthetic_sharing,
            baseline.centralised_real,
            baseline.per_node_local,
            baseline.share_validity,
        )

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_seeded_results_identical(self, baseline, lab_bundle_small, executor_factory):
        result = self._run(lab_bundle_small, executor_factory())
        assert baseline.local_only == result.local_only
        assert baseline.synthetic_sharing == result.synthetic_sharing
        assert baseline.centralised_real == result.centralised_real
        assert baseline.per_node_local == result.per_node_local
        assert baseline.share_validity == result.share_validity


class TestDistributedSimulationParityFloat32(TestDistributedSimulationParity):
    """The independent sampler has no network dtype, so the float32 axis of
    the distributed simulation runs each node's share through a float32
    KiNETGAN instead."""

    DTYPE = "float32"

    @classmethod
    def _synthesis(cls) -> dict:
        return {"config": dataclasses.replace(KINETGAN_CONFIG, dtype="float32")}


class TestFederatedKiNETGANParity:
    """Two rounds, so cross-round worker state (Adam moments, the trainer
    RNG, the KG head) is exercised: a resident site whose delta round-trip
    dropped any of it would diverge from the serial baseline in round 2."""

    DTYPE = "float64"
    CONFIG = KINETGAN_CONFIG

    @classmethod
    def _run(cls, bundle, executor):
        table = bundle.table.head(300)
        rng = np.random.default_rng(0)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=cls.CONFIG,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            seed=0,
            executor=executor,
        ) as fed:
            handles = [fed.add_site(f"site-{i}", part) for i, part in enumerate(parts)]
            fed.run(num_rounds=2, local_epochs=1)
            # Site handles returned by add_site must keep pointing at the
            # trained state (history, weights) whichever worker trained it.
            for handle, site in zip(handles, fed.sites):
                assert handle is site
                assert handle.trainer.history.epochs >= 2
            generator_state, discriminator_state = fed.global_states()
            sample = fed.sample(60)
            return generator_state, discriminator_state, sample

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None)

    def test_serial_baseline_matches_committed_digest(self, baseline):
        _assert_committed_digest("federated_kinetgan", self.DTYPE, *baseline)

    @pytest.mark.parametrize("executor_factory", MATRIX)
    def test_global_weights_and_sample_bit_identical(
        self, baseline, lab_bundle_small, executor_factory
    ):
        generator_state, discriminator_state, sample = self._run(
            lab_bundle_small, executor_factory()
        )
        _assert_states_equal(baseline[0], generator_state)
        _assert_states_equal(baseline[1], discriminator_state)
        for name in baseline[2].schema.names:
            assert list(baseline[2].column(name)) == list(sample.column(name)), name


class TestFederatedKiNETGANParityFloat32(TestFederatedKiNETGANParity):
    """The dtype axis on the full model: a float32 federated KiNETGAN fit
    must stay bit-identical across executors against its own float32
    serial baseline, and its global states must actually be float32 end
    to end (codec, shared buffers, aggregation)."""

    DTYPE = "float32"
    CONFIG = dataclasses.replace(KINETGAN_CONFIG, dtype="float32")

    def test_global_states_are_float32(self, baseline):
        generator_state, discriminator_state, _sample = baseline
        for state in (generator_state, discriminator_state):
            assert {np.asarray(value).dtype for value in state.values()} == {
                np.dtype(np.float32)
            }


class TestServerFaultRecoveryParity:
    """Recovery must be invisible: an injected mid-run worker crash (process
    pool) or abandoned straggler (thread pool) is absorbed by the deadline /
    retry machinery, and because the replay reuses the exact per-task
    SeedSequence child, the recovered run is bit-identical to a fault-free
    one -- same global state, same round history, nothing dropped."""

    #: 3 clients x 3 rounds dispatch task ids 0..8 through the executor's
    #: global counter; id 4 is round 2, slot 1 -- a mid-run fault.
    MID_RUN_TASK = 4

    @staticmethod
    def _run(executor, task_timeout):
        model_fn = DetectorFactory(n_features=5, n_classes=2, hidden_dims=(8,), seed=0)
        with FederatedServer(
            model_fn,
            _make_clients(3, model_fn),
            seed=0,
            executor=executor,
            task_timeout=task_timeout,
            task_retries=2,
        ) as server:
            server.run(3)
            return server.global_state, server.history.rounds

    @pytest.fixture(scope="class")
    def baseline(self):
        return self._run(None, None)

    @pytest.mark.parametrize("executor_factory,task_timeout", FAULT_MATRIX)
    def test_recovered_run_bit_identical(self, baseline, executor_factory, task_timeout):
        state, rounds = self._run(executor_factory(self.MID_RUN_TASK), task_timeout)
        assert [r.dropped for r in rounds] == [[], [], []]
        _assert_states_equal(baseline[0], state)
        assert baseline[1] == rounds


class TestFederatedKiNETGANFaultRecovery:
    """The acceptance gate of the fault-tolerant plane on the full model: a
    seeded federated KiNETGAN run with an injected mid-round worker crash
    (process executor) or straggler past the deadline (thread executor)
    completes via retry / replay with final global weights and samples
    bit-identical to the fault-free run."""

    #: 2 sites x 2 rounds dispatch task ids 0..3; id 2 is round 2, slot 0.
    MID_RUN_TASK = 2

    @classmethod
    def _run(cls, bundle, executor, task_timeout):
        table = bundle.table.head(300)
        rng = np.random.default_rng(0)
        parts = label_skew_partition(table, "label", 2, rng, skew=0.5, min_rows=20)
        with FederatedKiNETGAN(
            reference_table=table.head(150),
            config=KINETGAN_CONFIG,
            catalog=bundle.catalog,
            condition_columns=bundle.condition_columns,
            seed=0,
            executor=executor,
            task_timeout=task_timeout,
            task_retries=2,
        ) as fed:
            for i, part in enumerate(parts):
                fed.add_site(f"site-{i}", part)
            rounds = fed.run(num_rounds=2, local_epochs=1)
            assert [r.dropped for r in rounds] == [[], []]
            generator_state, discriminator_state = fed.global_states()
            return generator_state, discriminator_state, fed.sample(60)

    @pytest.fixture(scope="class")
    def baseline(self, lab_bundle_small):
        return self._run(lab_bundle_small, None, None)

    @pytest.mark.parametrize("executor_factory,task_timeout", FAULT_MATRIX)
    def test_crash_and_straggler_recover_bit_identical(
        self, baseline, lab_bundle_small, executor_factory, task_timeout
    ):
        generator_state, discriminator_state, sample = self._run(
            lab_bundle_small, executor_factory(self.MID_RUN_TASK), task_timeout
        )
        _assert_states_equal(baseline[0], generator_state)
        _assert_states_equal(baseline[1], discriminator_state)
        for name in baseline[2].schema.names:
            assert list(baseline[2].column(name)) == list(sample.column(name)), name
