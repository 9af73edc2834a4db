"""Batched mixture fits and mode encodes are bit-identical to one column at a time.

``fit_mixtures`` runs the EM of many columns as one loop and
``encode_modes`` draws the modes of many columns at once.  The oracle
below is the one-column EM and mode-specific encode they replaced, kept
here (and only here) as the reference: every fitted array,
every encoded matrix and the generator state left afterwards must be equal
bit for bit.  Two committed digests of ``DataTransformer.artifact_state()``
pin the fitted transformers of the benchmark datasets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import load_lab_iot, load_unsw_nb15
from repro.tabular.encoders import GaussianMixtureModel, ModeSpecificNormalizer, fit_mixtures
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

RECORDED_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}

#: sha256 of ``DataTransformer().fit(table).artifact_state()`` per dataset.
ARTIFACT_DIGESTS = {
    "unsw_nb15": "1959ff7518b0f64202d71c663a0a020f6fdde976571e5b5c8315ef84b3fe0f7e",
    "lab_iot": "6703e25743ee11ac9e6059664baf2207b77a4d585c0fcdebe5ad9d2fa63a82f4",
}


# --------------------------------------------------------------------- #
# Oracle: the one-column EM and mode-specific encode
# --------------------------------------------------------------------- #
def _oracle_responsibilities(values, weights, means, stds):
    log_prob = (
        -0.5 * ((values[:, None] - means) / stds) ** 2
        - np.log(stds)
        - 0.5 * np.log(2 * np.pi)
        + np.log(weights + 1e-12)
    )
    log_prob -= log_prob.max(axis=1, keepdims=True)
    prob = np.exp(log_prob)
    return prob / prob.sum(axis=1, keepdims=True)


def _oracle_fit(values, max_components=10, max_iter=50, weight_threshold=5e-3, seed=0):
    values = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    k = int(min(max_components, len(np.unique(values))))
    quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1] if k > 1 else np.asarray([0.5])
    means = np.quantile(values, quantiles) + rng.normal(0, 1e-6, size=k)
    global_std = values.std() or 1.0
    stds = np.full(k, global_std / max(k, 1) + 1e-6)
    weights = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        resp = _oracle_responsibilities(values, weights, means, stds)
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / len(values)
        means = (resp * values[:, None]).sum(axis=0) / nk
        variance = (resp * (values[:, None] - means) ** 2).sum(axis=0) / nk
        stds = np.sqrt(np.maximum(variance, 1e-12))
    keep = weights > weight_threshold
    if not keep.any():
        keep[np.argmax(weights)] = True
    std_floor = max(1e-6, 1e-3 * float(global_std))
    return (
        weights[keep] / weights[keep].sum(),
        means[keep],
        np.maximum(stds[keep], std_floor),
    )


def _oracle_transform(weights, means, stds, values, rng):
    proba = _oracle_responsibilities(values, weights, means, stds)
    cumulative = np.cumsum(proba, axis=1)
    draws = rng.uniform(size=len(values))
    modes = np.minimum((cumulative < draws[:, None]).sum(axis=1), len(weights) - 1)
    out = np.zeros((len(values), 1 + len(weights)))
    out[:, 0] = np.clip((values - means[modes]) / (4.0 * stds[modes]), -1.0, 1.0)
    out[np.arange(len(values)), 1 + modes] = 1.0
    return out


def _assert_fit_equal(gmm: GaussianMixtureModel, expected) -> None:
    for actual, wanted in zip((gmm.weights, gmm.means, gmm.stds), expected):
        assert np.array_equal(actual, wanted)


def _column(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "bimodal":
        return np.concatenate([rng.normal(-3, 0.5, n // 2), rng.normal(4, 1.5, n - n // 2)])
    if kind == "heavy":
        return rng.standard_t(1.2, size=n) * 50.0
    if kind == "lognormal":
        return rng.lognormal(3.0, 2.0, size=n)
    if kind == "three":
        return rng.choice([1.0, 7.0, 7.5], size=n)
    if kind == "constant":
        return np.full(n, 42.0)
    raise ValueError(kind)


def _state_digest(state) -> str:
    hasher = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, np.ndarray):
            hasher.update(f"array:{value.dtype.str}:{value.shape};".encode())
            hasher.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            hasher.update(f"dict:{len(value)};".encode())
            for key in sorted(value):
                feed(key)
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            hasher.update(f"list:{len(value)};".encode())
            for item in value:
                feed(item)
        else:
            hasher.update(f"{type(value).__name__}:{value!r};".encode())

    feed(state)
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# Fits
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("max_components", list(range(1, 11)) + [16, 17, 33, 130])
@pytest.mark.parametrize("kind", ["bimodal", "heavy", "lognormal"])
def test_fit_matches_oracle_for_every_component_count(kind, max_components):
    values = _column(kind, 400, seed=max_components)
    gmm = GaussianMixtureModel(max_components=max_components, seed=3).fit(values)
    assert len(gmm.weights) <= max_components
    _assert_fit_equal(gmm, _oracle_fit(values, max_components=max_components, seed=3))


@pytest.mark.parametrize(
    "values",
    [_column("constant", 50, 0), _column("three", 120, 1), np.asarray([2.5]), np.asarray([-1.0, 3.0])],
    ids=["constant", "three-unique", "one-row", "two-rows"],
)
def test_fit_matches_oracle_on_degenerate_columns(values):
    _assert_fit_equal(GaussianMixtureModel(seed=1).fit(values), _oracle_fit(values, seed=1))


def test_batched_fit_of_mixed_columns_matches_one_at_a_time():
    # Component counts 1, 3, 10, 10, 17 and two row counts share one call.
    columns = [
        _column("constant", 300, 0),
        _column("three", 300, 1),
        _column("bimodal", 300, 2),
        _column("heavy", 300, 3),
        _column("lognormal", 300, 4),
        _column("bimodal", 90, 5),
    ]
    limits = [10, 10, 10, 10, 17, 10]
    models = [GaussianMixtureModel(max_components=m, seed=i) for i, m in enumerate(limits)]
    fit_mixtures(models, columns)
    for i, (model, values) in enumerate(zip(models, columns)):
        _assert_fit_equal(model, _oracle_fit(values, max_components=limits[i], seed=i))


def test_predict_proba_and_log_likelihood_match_oracle():
    values = _column("bimodal", 300, 9)
    gmm = GaussianMixtureModel(max_components=4, seed=0).fit(values)
    probe = _column("heavy", 77, 10)
    oracle = _oracle_responsibilities(probe, gmm.weights, gmm.means, gmm.stds)
    assert np.array_equal(gmm.predict_proba(probe), oracle)
    log_prob = (
        -0.5 * ((probe[:, None] - gmm.means) / gmm.stds) ** 2
        - np.log(gmm.stds)
        - 0.5 * np.log(2 * np.pi)
        + np.log(gmm.weights + 1e-12)
    )
    max_log = log_prob.max(axis=1, keepdims=True)
    lse = max_log.squeeze(1) + np.log(np.exp(log_prob - max_log).sum(axis=1))
    assert gmm.log_likelihood(probe) == float(lse.mean())


# --------------------------------------------------------------------- #
# Encodes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("max_modes", [1, 2, 7, 8, 9, 10, 16, 17, 33])
def test_transform_matches_oracle_and_leaves_the_same_rng_state(max_modes):
    values = _column("lognormal", 500, max_modes)
    normalizer = ModeSpecificNormalizer(max_modes=max_modes, seed=2).fit(values)
    gmm = normalizer.gmm
    rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
    encoded = normalizer.transform(values, rng=rng)
    expected = _oracle_transform(gmm.weights, gmm.means, gmm.stds, values, oracle_rng)
    assert np.array_equal(encoded, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _mixed_table(n: int = 240) -> Table:
    schema = TableSchema(
        [
            ColumnSpec("flat", "continuous"),
            ColumnSpec("proto", "categorical", categories=("tcp", "udp")),
            ColumnSpec("triple", "continuous"),
            ColumnSpec("wide", "continuous"),
            ColumnSpec("heavy", "continuous"),
            ColumnSpec("bytes", "continuous"),
        ]
    )
    rng = np.random.default_rng(4)
    return Table(
        schema,
        {
            "flat": _column("constant", n, 0),
            "proto": np.asarray(rng.choice(["tcp", "udp"], size=n), dtype=object),
            "triple": _column("three", n, 1),
            "wide": _column("bimodal", n, 2),
            "heavy": _column("heavy", n, 3),
            "bytes": _column("lognormal", n, 4),
        },
    )


@pytest.mark.parametrize("max_modes", [10, 17])
def test_transformer_over_mixed_component_counts_matches_oracle(max_modes):
    table = _mixed_table()
    transformer = DataTransformer(max_modes=max_modes, seed=5).fit(table)
    counts = {len(transformer.encoder(name).gmm.weights) for name in ("flat", "triple", "wide")}
    assert len(counts) == 3  # the columns really fall into different groups
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    matrix = transformer.transform(table, rng=rng)
    for info in transformer.output_info:
        block = matrix[:, info.start : info.end]
        if info.kind == "categorical":
            continue
        values = table.column(info.name)
        fitted = _oracle_fit(values, max_components=max_modes, seed=5)
        _assert_fit_equal(transformer.encoder(info.name).gmm, fitted)
        assert np.array_equal(block, _oracle_transform(*fitted, values, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_encode_of_zero_rows_draws_nothing():
    transformer = DataTransformer(seed=0).fit(_mixed_table())
    rng = np.random.default_rng(1)
    matrix = transformer.transform(_mixed_table().head(0), rng=rng)
    assert matrix.shape == (0, transformer.output_dim)
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


# --------------------------------------------------------------------- #
# Committed digests of the benchmark datasets' fitted transformers
# --------------------------------------------------------------------- #
def artifact_digest(dataset: str) -> str:
    bundle = load_unsw_nb15(3000) if dataset == "unsw_nb15" else load_lab_iot(600)
    return _state_digest(DataTransformer().fit(bundle.table).artifact_state())


@pytest.mark.parametrize("dataset", sorted(ARTIFACT_DIGESTS))
def test_fitted_transformer_matches_committed_digest(dataset):
    digest = artifact_digest(dataset)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    environment = {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }
    if environment != RECORDED_ENVIRONMENT:
        pytest.fail(
            f"digests were recorded under {RECORDED_ENVIRONMENT}, not {environment}; "
            f"computed {digest}"
        )
    assert digest == ARTIFACT_DIGESTS[dataset], f"computed {digest}"
