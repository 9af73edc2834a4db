"""Hard sampling decodes straight from generator logits, bit for bit.

The conditional GANs no longer compute the inference softmax, harden it and
search the one-hot matrix for winners: ``BlockLayout.logit_winners`` reads
each block's winner off the pre-activation logits, and a near-tie
certificate sends the rows where rounding could change the softmax argmax
through the exact path.  These tests pin both halves:

* the certificate on hand-built logits (exact ties, a 1-ulp gap, peaks so
  small that ``exp`` rounds the runner-up to 1.0, all-equal blocks,
  non-finite logits), in float64 and float32: winners always equal the
  per-block argmax of ``layout.softmax(..., tau)``, and the rows that need
  it really go through the fallback;
* every sampling path against the still-public oracle
  ``inverse_transform(harden(concat(generator.forward(chunk, training=False))))``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import OCTGAN
from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.generator import TabularOutputActivation
from repro.engine import sampling_rng
from repro.federated.kinetgan import FederatedKiNETGAN, FederatedKiNETGANSite
from repro.federated.partition import label_skew_partition
from repro.serve import SampleRequest, SamplingService, save_model
from repro.serve.server import ServingPool
from repro.tabular.segments import BlockLayout

TAU = 0.2
DTYPES = [np.float64, np.float32]
#: Ragged sizes around the 64-row generator batch.
SIZES = [1, 63, 64, 65, 517]


# --------------------------------------------------------------------------- #
# The certificate on hand-built logits
# --------------------------------------------------------------------------- #
#: Three blocks over columns 0-2, 3 and 4-7; column 8 is a scalar column.
BOUNDS = [(0, 3), (3, 4), (4, 8)]
WIDTH = 9


def _softmax_winners(layout: BlockLayout, logits: np.ndarray) -> np.ndarray:
    return layout.argmax(layout.softmax(layout.gather(logits), tau=TAU))


def _row(dtype, first, second=(0.0,), third=(0.0, -1.0, -2.0, -3.0)) -> np.ndarray:
    return np.asarray([*first, *second, *third, 0.5], dtype=dtype)


def _cases(dtype) -> dict[str, tuple[np.ndarray, bool]]:
    """Named single-row logits and whether the certificate must flag them."""
    up = lambda x: np.nextafter(dtype(x), dtype(np.inf))  # noqa: E731
    return {
        "clean": (_row(dtype, (0.3, 2.0, -1.0)), False),
        "exact tie": (_row(dtype, (1.0, 1.0, 0.5)), True),
        "1-ulp gap": (_row(dtype, (1.0, up(1.0), 0.5)), True),
        # |p| < 0.05: the runner-up's exp rounds to exactly 1.0, so the
        # softmax ties and its argmax is the lower index, not the logit peak.
        "tiny peak": (_row(dtype, (0.01, up(0.01), -1.0)), True),
        "all equal": (_row(dtype, (0.25, 0.25, 0.25)), True),
        "nan": (_row(dtype, (0.1, np.nan, 0.2)), True),
        "+inf": (_row(dtype, (0.1, np.inf, 0.2)), True),
        "all -inf": (_row(dtype, (-np.inf, -np.inf, -np.inf)), True),
        # exp(-inf) is exactly 0: a -inf loser below a finite peak is exact.
        "-inf loser": (_row(dtype, (0.1, -np.inf, 0.9)), False),
        "window edge": (_row(dtype, (1.0, 1.0 - 512 * TAU * np.finfo(dtype).eps, 0.0)), False),
    }


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", list(_cases(np.float64)), ids=lambda name: name.replace(" ", "-"))
def test_certificate_flags_exactly_the_unsafe_rows(dtype, case):
    layout = BlockLayout(BOUNDS)
    logits, unsafe = _cases(dtype)[case]
    # The case row sits between two clean rows, so flagged indices are real.
    clean = _cases(dtype)["clean"][0]
    matrix = np.stack([clean, logits, clean])
    with np.errstate(invalid="ignore"):
        expected = _softmax_winners(layout, matrix)
    winners, fallback = layout.logit_winners(matrix, TAU)
    assert fallback.tolist() == ([1] if unsafe else [])
    safe = np.setdiff1d(np.arange(3), fallback)
    np.testing.assert_array_equal(winners[safe], expected[safe])


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiny_peak_needs_the_fallback(dtype):
    """The case the certificate exists for: the logit argmax is wrong."""
    layout = BlockLayout(BOUNDS)
    matrix = _cases(dtype)["tiny peak"][0][None, :]
    winners, fallback = layout.logit_winners(matrix, TAU)
    assert fallback.tolist() == [0]
    assert winners[0, 0] == 1
    assert _softmax_winners(layout, matrix)[0, 0] == 0


@pytest.mark.parametrize("dtype", DTYPES)
def test_column_major_input_reads_the_same(dtype):
    layout = BlockLayout(BOUNDS)
    matrix = np.random.default_rng(0).normal(size=(300, WIDTH)).astype(dtype)
    c_order = layout.logit_winners(matrix, TAU)
    f_order = layout.logit_winners(np.asfortranarray(matrix), TAU)
    np.testing.assert_array_equal(c_order[0], f_order[0])
    np.testing.assert_array_equal(c_order[1], f_order[1])
    np.testing.assert_array_equal(c_order[0], _softmax_winners(layout, matrix))


def _spans() -> list[tuple[int, int, str]]:
    return [(s, e, "softmax") for s, e in BOUNDS] + [(8, 9, "tanh")]


@pytest.mark.parametrize("dtype", DTYPES)
def test_activation_decode_matches_forward_and_runs_the_fallback(dtype, monkeypatch):
    activation = TabularOutputActivation(_spans(), tau=TAU)
    cases = _cases(dtype)
    rng = np.random.default_rng(1)
    matrix = np.concatenate(
        [rng.normal(size=(50, WIDTH)).astype(dtype), np.stack([c for c, _ in cases.values()])]
    )
    with np.errstate(invalid="ignore"):
        reference = activation.forward(matrix.copy(), training=False)
    expected = activation._layout.argmax_matrix(reference)
    calls: list[int] = []
    real = TabularOutputActivation.forward

    def spy(self, x, training=True):
        calls.append(x.shape[0])
        return real(self, x, training=training)

    monkeypatch.setattr(TabularOutputActivation, "forward", spy)
    values = matrix.copy()
    with np.errstate(invalid="ignore"):
        winners = activation.decode_logits(values)
    np.testing.assert_array_equal(winners, expected)
    assert calls == [sum(unsafe for _, unsafe in cases.values())]
    assert values.dtype == dtype
    assert values[:, 8].tobytes() == reference[:, 8].tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_hard_output_activations_match_softmax_one_hot(fitted_transformer, dtype):
    transformer = fitted_transformer
    layout = transformer.softmax_layout()
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(200, transformer.output_dim)).astype(dtype)
    start, _end = layout.bounds[0]
    raw[::3, start + 1] = raw[::3, start] = 9.0  # exact ties: the fallback runs
    assert layout.logit_winners(raw, TAU)[1].size >= 60
    got = transformer.apply_output_activations(raw, gumbel_tau=TAU, hard=True)
    expected = np.zeros(got.shape)
    soft = layout.softmax(layout.gather(raw.astype(np.float64)), tau=TAU)
    codes = layout.argmax(soft)
    expected[np.arange(200)[:, None], layout.columns[layout.starts + codes]] = 1.0
    np.testing.assert_array_equal(got[:, layout.columns], expected[:, layout.columns])


# --------------------------------------------------------------------------- #
# Bit-identity against the soft-matrix oracle
# --------------------------------------------------------------------------- #
def _config(dtype: str) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=1,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=3,
        dtype=dtype,
    )


def _oracle(model, n, rng, conditions=None):
    """``sample()`` the old way: soft forward chunks, harden, inverse."""
    trainer = model.trainer
    if conditions is None:
        condition = model.sampler.empirical_conditions(n, rng)
    else:
        condition = np.tile(model.sampler.vector_from_values(conditions), (n, 1))
    batch = trainer.config.batch_size
    chunks = [
        trainer.generator.forward(
            rng.normal(size=(min(batch, n - start), trainer.config.embedding_dim)),
            condition[start : start + batch],
            training=False,
        )
        for start in range(0, n, batch)
    ]
    transformer = model.transformer
    return transformer.inverse_transform(transformer.harden(np.concatenate(chunks, axis=0)))


def assert_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        if x.dtype == object:
            assert x.tolist() == y.tolist(), name
        else:
            assert x.tobytes() == y.tobytes(), name


@pytest.fixture(scope="module", params=["float64", "float32"])
def kinetgan(request, lab_bundle_small):
    bundle = lab_bundle_small
    model = KiNETGAN(_config(request.param))
    return model.fit(
        bundle.table.head(500), catalog=bundle.catalog, condition_columns=bundle.condition_columns
    )


@pytest.fixture(scope="module")
def octgan(lab_bundle_small):
    model = OCTGAN(_config("float64"), ode_steps=2)
    return model.fit(
        lab_bundle_small.table.head(400), condition_columns=lab_bundle_small.condition_columns
    )


@pytest.mark.parametrize("n", SIZES)
def test_kinetgan_sample_matches_oracle(kinetgan, n):
    for seed in range(3):
        assert_identical(
            kinetgan.sample(n, rng=sampling_rng(seed)), _oracle(kinetgan, n, sampling_rng(seed))
        )


def test_unsw_sample_matches_oracle(unsw_bundle_small):
    """A second schema: more, wider one-hot blocks and mode columns."""
    bundle = unsw_bundle_small
    model = KiNETGAN(_config("float32")).fit(
        bundle.table.head(500), catalog=bundle.catalog, condition_columns=bundle.condition_columns
    )
    assert_identical(model.sample(3000, rng=sampling_rng(5)), _oracle(model, 3000, sampling_rng(5)))


def test_conditional_sample_matches_oracle(kinetgan, lab_bundle_small):
    column = lab_bundle_small.condition_columns[0]
    conditions = {column: lab_bundle_small.table.column(column)[0]}
    assert_identical(
        kinetgan.sample(333, conditions=conditions, rng=sampling_rng(4)),
        _oracle(kinetgan, 333, sampling_rng(4), conditions=conditions),
    )


@pytest.mark.parametrize("n", SIZES)
def test_octgan_sample_matches_oracle(octgan, n):
    assert_identical(octgan.sample(n, rng=sampling_rng(n)), _oracle(octgan, n, sampling_rng(n)))


@pytest.mark.parametrize("n", SIZES)
def test_hard_generate_matrix_equals_harden(kinetgan, n):
    trainer, transformer = kinetgan.trainer, kinetgan.transformer
    hard = trainer.generate_matrix(n, rng=sampling_rng(8))
    soft = trainer.generate_matrix(n, rng=sampling_rng(8), hard=False)
    expected = transformer.harden(soft)
    assert hard.dtype == expected.dtype == np.float64
    assert hard.tobytes() == expected.tobytes()


@pytest.fixture
def forced_ties(kinetgan):
    """The fitted model with its first one-hot block rigged so every row
    needs the fallback: columns 0 and 1 emit constant logits ``p`` and
    ``nextafter(p)`` with ``p = 0.01``, above the block's other columns.
    The softmax ties them (``exp`` of a 1-ulp gap rounds to 1.0), so the
    exact winner is column 0 while the logit peak is column 1."""
    dense = kinetgan.trainer.generator.network.layers[-2]
    layout = kinetgan.transformer.softmax_layout()
    start, end = layout.bounds[0]
    saved = dense.weight.copy(), dense.bias.copy()
    dtype = dense.weight.dtype.type
    dense.weight[:, start:end] = 0.0
    dense.bias[start:end] = -1.0
    dense.bias[start] = dtype(0.01)
    dense.bias[start + 1] = np.nextafter(dtype(0.01), dtype(np.inf))
    yield kinetgan
    dense.weight[...] = saved[0]
    dense.bias[...] = saved[1]


def test_fallback_keeps_real_samples_exact(forced_ties, monkeypatch):
    model = forced_ties
    expected = _oracle(model, 200, sampling_rng(6))
    rows: list[int] = []
    real = TabularOutputActivation.forward

    def spy(self, x, training=True):
        rows.append(x.shape[0])
        return real(self, x, training=training)

    monkeypatch.setattr(TabularOutputActivation, "forward", spy)
    assert_identical(model.sample(200, rng=sampling_rng(6)), expected)
    assert rows == [200]


def test_sampling_service_paths_match_oracle(kinetgan, tmp_path):
    # The sizes leave 1-row and short tail chunks: the service keeps each
    # request's batch_size chunks, so those rows see the same BLAS kernel.
    save_model(kinetgan, tmp_path / "model")
    service = SamplingService()
    sizes = [1, 2, 63, 64, 65, 130, 517]
    requests = [SampleRequest(artifact=str(tmp_path / "model"), n=n, seed=n) for n in sizes]
    for request, table in zip(requests, service.sample_many(requests)):
        assert_identical(table, _oracle(kinetgan, request.n, sampling_rng(request.seed)))
    chunks = list(service.sample_stream(tmp_path / "model", 300, seed=9, chunk_rows=70))
    pooled = chunks[0]
    for chunk in chunks[1:]:
        pooled = pooled.concat(chunk)
    assert_identical(pooled, _oracle(kinetgan, 300, sampling_rng(9)))


def test_thread_pool_burst_matches_oracle(kinetgan, tmp_path):
    save_model(kinetgan, tmp_path / "model")
    requests = [("model", n, None, seed) for seed in range(3) for n in (65, 400)]
    with ServingPool({"model": tmp_path / "model"}, executor="thread:2") as pool:
        results = pool.sample_batch(requests)
    for (_name, n, _conditions, seed), result in zip(requests, results):
        assert result.failure is None
        assert_identical(result.value, _oracle(kinetgan, n, sampling_rng(seed)))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_federated_pooled_sample_matches_oracle(lab_bundle_small, monkeypatch, dtype):
    table = lab_bundle_small.table.head(300)
    parts = label_skew_partition(table, "label", 2, np.random.default_rng(0), skew=0.5, min_rows=20)
    fed = FederatedKiNETGAN(
        reference_table=table.head(150),
        config=dataclasses.replace(_config(dtype), knowledge_negatives_per_batch=8),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
        seed=0,
    )
    with fed:
        for i, part in enumerate(parts):
            fed.add_site(f"site-{i}", part)
        fed.run(num_rounds=1, local_epochs=1)
        sample = fed.sample(257, rng=sampling_rng(2))
        monkeypatch.setattr(
            FederatedKiNETGANSite, "sample", lambda site, n, rng: _oracle(site, n, rng)
        )
        assert_identical(sample, fed.sample(257, rng=sampling_rng(2)))
