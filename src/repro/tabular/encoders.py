"""Column encoders.

The synthesizers never see raw table values; every column is encoded into a
float representation first.  This module provides:

* :class:`OneHotEncoder` / :class:`OrdinalEncoder` for categorical columns,
* :class:`MinMaxScaler` / :class:`StandardScaler` for continuous columns,
* :class:`GaussianMixtureModel`, a small EM-fitted mixture used by
* :class:`ModeSpecificNormalizer`, the CTGAN-style representation of a
  continuous value as (normalised offset within a mode, one-hot mode id).

All encoders follow a ``fit`` / ``transform`` / ``inverse_transform``
protocol and raise if used before fitting.

Fitted encoders also implement the artifact-state protocol used by
:mod:`repro.serve`: ``artifact_state()`` returns a plain dict capturing the
fitted state exactly (category lists in first-seen order, mixture
parameters, scaling bounds) and :func:`encoder_from_state` rebuilds an
encoder that transforms and decodes bit-identically to the original.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OneHotEncoder",
    "OrdinalEncoder",
    "MinMaxScaler",
    "StandardScaler",
    "GaussianMixtureModel",
    "ModeSpecificNormalizer",
    "encoder_from_state",
    "encode_modes",
    "fit_mixtures",
    "mode_groups",
]


class _FittedMixin:
    _fitted = False

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")


class _CategoryCodec(_FittedMixin):
    """Shared category <-> integer-code machinery for categorical encoders.

    Categories are held three ways: as a plain list (the public API), as a
    ``{value: code}`` dict for O(1) lookup, and as an object ndarray so that
    decoding a whole batch of codes is a single fancy-index operation.
    """

    def __init__(self, categories: list | None = None) -> None:
        self.categories: list = list(categories) if categories is not None else []
        self._index: dict = {}
        self._categories_array: np.ndarray | None = None
        if categories is not None:
            self._set_categories(self.categories)
            self._fitted = True

    def _set_categories(self, categories: list) -> None:
        self.categories = list(categories)
        self._index = {value: i for i, value in enumerate(self.categories)}
        self._categories_array = np.empty(len(self.categories), dtype=object)
        self._categories_array[:] = self.categories

    def _fit_from_values(self, values: np.ndarray) -> None:
        if not self._fitted:
            seen: dict = {}
            for value in values:
                if value not in seen:
                    seen[value] = len(seen)
            self._set_categories(list(seen))
            self._fitted = True

    def codes(self, values) -> np.ndarray:
        """Integer codes for a batch of raw values (-1 marks unknowns)."""
        self._require_fitted()
        get = self._index.get
        return np.fromiter((get(v, -1) for v in values), dtype=np.int64, count=len(values))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Category values for a batch of integer codes (fancy-indexed)."""
        self._require_fitted()
        return self._categories_array[codes]


def encoder_from_state(state: dict):
    """Rebuild a fitted encoder from an ``artifact_state()`` dict."""
    kind = state.get("type")
    types = {
        "onehot": OneHotEncoder,
        "ordinal": OrdinalEncoder,
        "minmax": MinMaxScaler,
        "standard": StandardScaler,
        "gmm": GaussianMixtureModel,
        "mode_specific": ModeSpecificNormalizer,
    }
    if kind not in types:
        raise ValueError(f"unknown encoder state type {kind!r}")
    return types[kind].from_artifact_state(state)


class OneHotEncoder(_CategoryCodec):
    """One-hot encoding for a single categorical column.

    Categories can be provided up front (so the encoding matches a schema /
    knowledge-graph domain exactly) or learned from data in first-seen order.
    Unknown values at transform time raise ``ValueError`` unless
    ``handle_unknown='ignore'``, in which case they map to the all-zero row.

    ``transform`` / ``inverse_transform`` are batched array operations: values
    are mapped to integer codes once, then the one-hot matrix is built with a
    single scatter write (and decoded with a single fancy index).
    """

    def __init__(self, categories: list | None = None, handle_unknown: str = "error") -> None:
        if handle_unknown not in ("error", "ignore"):
            raise ValueError("handle_unknown must be 'error' or 'ignore'")
        self.handle_unknown = handle_unknown
        super().__init__(categories)

    def fit(self, values: np.ndarray) -> "OneHotEncoder":
        self._fit_from_values(values)
        return self

    @property
    def dim(self) -> int:
        self._require_fitted()
        return len(self.categories)

    def codes(self, values) -> np.ndarray:
        """Integer codes for raw values; unknowns are -1 (or raise in
        ``handle_unknown='error'`` mode)."""
        codes = super().codes(values)
        if self.handle_unknown == "error" and (codes < 0).any():
            bad = values[int(np.argmax(codes < 0))]
            raise ValueError(f"unknown category {bad!r}")
        return codes

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        codes = self.codes(values)
        out = np.zeros((len(values), len(self.categories)), dtype=np.float64)
        known = codes >= 0
        out[np.nonzero(known)[0], codes[known]] = 1.0
        return out

    def inverse_transform(self, encoded: np.ndarray) -> np.ndarray:
        """Map (possibly soft) one-hot rows back to category values by argmax."""
        self._require_fitted()
        return self.decode(np.argmax(encoded, axis=1))

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {
            "type": "onehot",
            "categories": list(self.categories),
            "handle_unknown": self.handle_unknown,
        }

    @classmethod
    def from_artifact_state(cls, state: dict) -> "OneHotEncoder":
        return cls(
            categories=list(state["categories"]),
            handle_unknown=state.get("handle_unknown", "error"),
        )


class OrdinalEncoder(_CategoryCodec):
    """Map categories to integer codes ``0..K-1`` (used by tree classifiers)."""

    def fit(self, values: np.ndarray) -> "OrdinalEncoder":
        self._fit_from_values(values)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        codes = self.codes(values)
        if (codes < 0).any():
            bad = values[int(np.argmax(codes < 0))]
            raise ValueError(f"unknown category {bad!r}")
        return codes.astype(np.float64)

    def inverse_transform(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        clipped = np.clip(np.rint(codes).astype(int), 0, len(self.categories) - 1)
        return self.decode(clipped)

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {"type": "ordinal", "categories": list(self.categories)}

    @classmethod
    def from_artifact_state(cls, state: dict) -> "OrdinalEncoder":
        return cls(categories=list(state["categories"]))


class MinMaxScaler(_FittedMixin):
    """Scale a continuous column into ``[-1, 1]`` (TableGAN-style)."""

    def __init__(self) -> None:
        self.minimum = 0.0
        self.maximum = 1.0

    def fit(self, values: np.ndarray) -> "MinMaxScaler":
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot fit MinMaxScaler on empty data")
        self.minimum = float(values.min())
        self.maximum = float(values.max())
        self._fitted = True
        return self

    @property
    def span(self) -> float:
        return max(self.maximum - self.minimum, 1e-12)

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)
        return 2.0 * (values - self.minimum) / self.span - 1.0

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        self._require_fitted()
        scaled = np.clip(np.asarray(scaled, dtype=np.float64), -1.0, 1.0)
        return (scaled + 1.0) / 2.0 * self.span + self.minimum

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {"type": "minmax", "minimum": self.minimum, "maximum": self.maximum}

    @classmethod
    def from_artifact_state(cls, state: dict) -> "MinMaxScaler":
        scaler = cls()
        scaler.minimum = float(state["minimum"])
        scaler.maximum = float(state["maximum"])
        scaler._fitted = True
        return scaler


class StandardScaler(_FittedMixin):
    """Zero-mean unit-variance scaling."""

    def __init__(self) -> None:
        self.mean = 0.0
        self.std = 1.0

    def fit(self, values: np.ndarray) -> "StandardScaler":
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot fit StandardScaler on empty data")
        self.mean = float(values.mean())
        self.std = float(values.std()) or 1.0
        self._fitted = True
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return np.asarray(scaled, dtype=np.float64) * self.std + self.mean

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {"type": "standard", "mean": self.mean, "std": self.std}

    @classmethod
    def from_artifact_state(cls, state: dict) -> "StandardScaler":
        scaler = cls()
        scaler.mean = float(state["mean"])
        scaler.std = float(state["std"])
        scaler._fitted = True
        return scaler


#: The Gaussian log-density constant ``0.5 * log(2 pi)``.
_HALF_LOG_2PI = 0.5 * np.log(2 * np.pi)
#: numpy's pairwise-summation block (``PW_BLOCKSIZE`` in its add loops).
_PAIRWISE_BLOCK = 128


def _component_sum(x: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Sum ``x[lo:hi]`` over its leading (component) axis in numpy's order.

    numpy sums each row of a C-contiguous ``(rows, k)`` array pairwise:
    one after another below 8 terms; otherwise into 8 interleaved
    accumulators that are combined as a tree before the tail is added; and
    above 128 terms as the sum of two halves.  Replaying that order with one
    whole ``x[j]`` slab per term gives bit-identical sums, with every add a
    long contiguous pass instead of a k-element row.  The terms here are
    probabilities, so the sign of a zero sum never arises.
    """
    hi = len(x) if hi is None else hi
    n = hi - lo
    if n < 8:
        total = x[lo].copy()
        for j in range(lo + 1, hi):
            total += x[j]
        return total
    if n > _PAIRWISE_BLOCK:
        half = n // 2
        half -= half % 8
        return _component_sum(x, lo, lo + half) + _component_sum(x, lo + half, hi)
    stop = hi - n % 8
    acc = x[lo : lo + 8]
    if stop > lo + 8:
        acc = acc.copy()
        for j in range(lo + 8, stop, 8):
            acc += x[j : j + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for j in range(stop, hi):
        total += x[j]
    return total


def _log_density(values, weights, means, stds, out: np.ndarray) -> np.ndarray:
    """Weighted component log-densities: ``out[j, c, i]`` is component ``j``
    of column ``c`` at row ``i``.

    ``values`` is ``(columns, rows)``; ``weights``, ``means`` and ``stds``
    are ``(k, columns)``.  Each operator of the one-column expression
    ``-0.5 * ((v - mu) / sigma) ** 2 - log(sigma) - 0.5 * log(2 pi) +
    log(w + 1e-12)`` is one elementwise pass in the same order, so every
    entry is bit-identical to the one-column result.
    """
    np.subtract(values, means[:, :, None], out=out)
    np.divide(out, stds[:, :, None], out=out)
    np.square(out, out=out)
    np.multiply(out, -0.5, out=out)
    np.subtract(out, np.log(stds)[:, :, None], out=out)
    np.subtract(out, _HALF_LOG_2PI, out=out)
    np.add(out, np.log(weights + 1e-12)[:, :, None], out=out)
    return out


def _responsibilities(values, weights, means, stds, out: np.ndarray) -> np.ndarray:
    """Posterior component probabilities in the ``(k, columns, rows)``
    layout of :func:`_log_density`, written into ``out``."""
    _log_density(values, weights, means, stds, out)
    np.subtract(out, out.max(axis=0), out=out)
    np.exp(out, out=out)
    np.divide(out, _component_sum(out), out=out)
    return out


def _em(values: np.ndarray, weights, means, stds, iterations: int):
    """``iterations`` EM steps for every column of ``values`` at once.

    The E step runs in the ``(k, columns, rows)`` layout, where each
    reduction over components is a pass over whole row slabs.  The M step
    sums over rows; numpy sums an ``(rows, k)`` array over its rows one row
    after another, so the responsibilities are transposed once per step
    into ``(rows, k * columns)`` and summed there with the same order in
    every lane.  Parameters are ``(k, columns)`` arrays.
    """
    k, n_columns = means.shape
    n = values.shape[1]
    work = np.empty((k, n_columns, n))
    resp = np.empty((n, k * n_columns))
    # Column ``j * n_columns + c`` holds column ``c``'s values.
    tiled = np.tile(values.T, (1, k))
    scratch = work.reshape(n, k * n_columns)
    for _ in range(iterations):
        _responsibilities(values, weights, means, stds, work)
        np.copyto(resp, work.reshape(k * n_columns, n).T)
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / n
        np.multiply(resp, tiled, out=scratch)
        means = scratch.sum(axis=0) / nk
        np.subtract(tiled, means, out=scratch)
        np.square(scratch, out=scratch)
        np.multiply(resp, scratch, out=scratch)
        variance = scratch.sum(axis=0) / nk
        stds = np.sqrt(np.maximum(variance, 1e-12))
        weights, means, stds = (a.reshape(k, n_columns) for a in (weights, means, stds))
    return weights, means, stds


def fit_mixtures(models: list["GaussianMixtureModel"], columns: list) -> None:
    """Fit each mixture in ``models`` on the matching entry of ``columns``.

    Columns that share a component count, a row count and an iteration
    count run their EM as one batched loop (:func:`_em`); every fitted
    array is bit-identical to fitting the column alone, which is what
    :meth:`GaussianMixtureModel.fit` does through this same function.
    """
    starts = [model._start(values) for model, values in zip(models, columns)]
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (model, start) in enumerate(zip(models, starts)):
        values, weights = start[0], start[1]
        groups.setdefault((len(weights), len(values), model.max_iter), []).append(i)
    for (_, _, iterations), members in groups.items():
        values = np.stack([starts[i][0] for i in members])
        weights, means, stds = (
            np.stack([starts[i][p] for i in members], axis=1) for p in (1, 2, 3)
        )
        weights, means, stds = _em(values, weights, means, stds, iterations)
        for slot, i in enumerate(members):
            models[i]._finish(weights[:, slot], means[:, slot], stds[:, slot], starts[i][4])


class GaussianMixtureModel(_FittedMixin):
    """One-dimensional Gaussian mixture fitted with EM.

    A deliberately small implementation: k-means++-style seeding, a fixed
    number of EM iterations, and pruning of components whose weight falls
    below ``weight_threshold`` (mirroring the variational GMM behaviour that
    CTGAN relies on to pick the number of modes automatically).  Several
    columns fit together through :func:`fit_mixtures`.
    """

    def __init__(
        self,
        max_components: int = 10,
        max_iter: int = 50,
        weight_threshold: float = 5e-3,
        seed: int = 0,
    ) -> None:
        if max_components < 1:
            raise ValueError("max_components must be at least 1")
        self.max_components = max_components
        self.max_iter = max_iter
        self.weight_threshold = weight_threshold
        self.seed = seed
        self.weights = np.asarray([1.0])
        self.means = np.asarray([0.0])
        self.stds = np.asarray([1.0])

    @property
    def n_components(self) -> int:
        self._require_fitted()
        return len(self.weights)

    def fit(self, values: np.ndarray) -> "GaussianMixtureModel":
        fit_mixtures([self], [values])
        return self

    def _start(self, values) -> tuple:
        """``(values, weights, means, stds, global_std)`` before the first EM step."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot fit GMM on empty data")
        rng = np.random.default_rng(self.seed)
        unique = np.unique(values)
        k = int(min(self.max_components, len(unique)))
        # Seed means from quantiles for stability; add jitter to break ties.
        quantiles = np.linspace(0.0, 1.0, k + 2)[1:-1] if k > 1 else np.asarray([0.5])
        means = np.quantile(values, quantiles)
        means = means + rng.normal(0, 1e-6, size=k)
        global_std = values.std() or 1.0
        stds = np.full(k, global_std / max(k, 1) + 1e-6)
        weights = np.full(k, 1.0 / k)
        return values, weights, means, stds, global_std

    def _finish(self, weights, means, stds, global_std) -> None:
        keep = weights > self.weight_threshold
        if not keep.any():
            keep[np.argmax(weights)] = True
        self.weights = weights[keep] / weights[keep].sum()
        self.means = means[keep]
        # Floor the per-mode spread relative to the overall spread so that a
        # collapsed mode cannot assign absurdly low likelihood to nearby data.
        std_floor = max(1e-6, 1e-3 * float(global_std))
        self.stds = np.maximum(stds[keep], std_floor)
        self._fitted = True

    def _params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fitted weights, means and stds as ``(k, 1)`` columns."""
        return self.weights[:, None], self.means[:, None], self.stds[:, None]

    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Posterior mode-membership probabilities for each value."""
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)[None, :]
        out = np.empty((len(self.weights), 1, values.shape[1]))
        return np.ascontiguousarray(_responsibilities(values, *self._params(), out)[:, 0].T)

    def log_likelihood(self, values: np.ndarray) -> float:
        """Mean log-likelihood of ``values`` under the fitted mixture."""
        self._require_fitted()
        values = np.asarray(values, dtype=np.float64)[None, :]
        log_prob = _log_density(
            values, *self._params(), np.empty((len(self.weights), 1, values.shape[1]))
        )
        max_log = log_prob.max(axis=0)
        lse = max_log + np.log(_component_sum(np.exp(log_prob - max_log)))
        return float(lse[0].mean())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples from the fitted mixture."""
        self._require_fitted()
        components = rng.choice(len(self.weights), size=n, p=self.weights)
        return rng.normal(self.means[components], self.stds[components])

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {
            "type": "gmm",
            "max_components": self.max_components,
            "max_iter": self.max_iter,
            "weight_threshold": self.weight_threshold,
            "seed": self.seed,
            "weights": np.asarray(self.weights, dtype=np.float64),
            "means": np.asarray(self.means, dtype=np.float64),
            "stds": np.asarray(self.stds, dtype=np.float64),
        }

    @classmethod
    def from_artifact_state(cls, state: dict) -> "GaussianMixtureModel":
        gmm = cls(
            max_components=int(state["max_components"]),
            max_iter=int(state["max_iter"]),
            weight_threshold=float(state["weight_threshold"]),
            seed=int(state["seed"]),
        )
        gmm.weights = np.asarray(state["weights"], dtype=np.float64)
        gmm.means = np.asarray(state["means"], dtype=np.float64)
        gmm.stds = np.asarray(state["stds"], dtype=np.float64)
        gmm._fitted = True
        return gmm


class ModeSpecificNormalizer(_FittedMixin):
    """CTGAN mode-specific normalisation for one continuous column.

    A value ``v`` becomes ``(alpha, beta)`` where ``beta`` is the one-hot id
    of the sampled mode (by posterior probability) and
    ``alpha = clip((v - mu_k) / (4 * sigma_k), -1, 1)`` is the offset within
    that mode.  ``inverse_transform`` reverses the mapping using the argmax
    mode of the (possibly soft) ``beta`` block.  Several columns encode
    together through :func:`encode_modes`.
    """

    def __init__(self, max_modes: int = 10, seed: int = 0) -> None:
        self.gmm = GaussianMixtureModel(max_components=max_modes, seed=seed)
        self.seed = seed

    @property
    def _fitted(self) -> bool:
        return self.gmm._fitted

    def fit(self, values: np.ndarray) -> "ModeSpecificNormalizer":
        self.gmm.fit(values)
        return self

    @property
    def n_modes(self) -> int:
        self._require_fitted()
        return self.gmm.n_components

    @property
    def dim(self) -> int:
        """Width of the encoded representation: 1 scalar + one-hot modes."""
        return 1 + self.n_modes

    def transform(self, values: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Encode a batch of values as ``(alpha, one-hot mode)`` rows
        (a one-column :func:`encode_modes`)."""
        self._require_fitted()
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        values = np.asarray(values, dtype=np.float64)
        alpha, modes = encode_modes(mode_groups([self]), values[None, :], rng)
        out = np.zeros((len(values), self.dim), dtype=np.float64)
        out[:, 0] = alpha[0]
        out[np.arange(len(values)), 1 + modes[0]] = 1.0
        return out

    def inverse_from_modes(self, alpha: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """Decode from the alpha scalar and already-resolved mode indices.

        This is the fused fast path used by
        :meth:`~repro.tabular.transformer.DataTransformer.inverse_transform`,
        which computes every block's argmax in one batched pass.
        """
        self._require_fitted()
        alpha = np.clip(np.asarray(alpha, dtype=np.float64), -1.0, 1.0)
        mu = self.gmm.means[modes]
        sigma = self.gmm.stds[modes]
        return alpha * 4.0 * sigma + mu

    def inverse_transform(self, encoded: np.ndarray) -> np.ndarray:
        self._require_fitted()
        encoded = np.asarray(encoded, dtype=np.float64)
        if encoded.shape[1] != self.dim:
            raise ValueError(f"expected width {self.dim}, got {encoded.shape[1]}")
        return self.inverse_from_modes(encoded[:, 0], np.argmax(encoded[:, 1:], axis=1))

    def artifact_state(self) -> dict:
        self._require_fitted()
        return {"type": "mode_specific", "seed": self.seed, "gmm": self.gmm.artifact_state()}

    @classmethod
    def from_artifact_state(cls, state: dict) -> "ModeSpecificNormalizer":
        gmm = GaussianMixtureModel.from_artifact_state(state["gmm"])
        normalizer = cls(max_modes=gmm.max_components, seed=int(state["seed"]))
        normalizer.gmm = gmm
        return normalizer


def mode_groups(normalizers: list[ModeSpecificNormalizer]) -> list[tuple]:
    """The fitted mixtures of ``normalizers`` grouped by mode count, for
    :func:`encode_modes`: ``(k, columns, weights, means, stds)`` per group,
    ``columns`` indexing ``normalizers`` and the parameters stacked as
    ``(k, len(columns))`` arrays."""
    members: dict[int, list[int]] = {}
    for c, normalizer in enumerate(normalizers):
        members.setdefault(normalizer.n_modes, []).append(c)
    groups = []
    for k, columns in members.items():
        gmms = [normalizers[c].gmm for c in columns]
        weights, means, stds = (
            np.stack([getattr(gmm, name) for gmm in gmms], axis=1)
            for name in ("weights", "means", "stds")
        )
        groups.append((k, np.asarray(columns), weights, means, stds))
    return groups


def encode_modes(
    groups: list[tuple], values: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, modes)`` of ``values``, ``(columns, rows)``, under the
    :func:`mode_groups` of one normalizer per column.

    Mode assignment is a batched inverse-CDF draw over the posterior mode
    probabilities: one ``rng.uniform(size=values.shape)`` call, which
    consumes the generator exactly as one ``uniform(size=rows)`` call per
    column in order.  Each group of columns with the same number of modes
    takes one pass of the posterior.
    """
    draws = rng.uniform(size=values.shape)
    alpha = np.empty(values.shape)
    modes = np.empty(values.shape, dtype=np.intp)
    for k, columns, weights, means, stds in groups:
        group_values = values[columns]
        cumulative = _responsibilities(
            group_values, weights, means, stds, np.empty((k,) + group_values.shape)
        )
        np.cumsum(cumulative, axis=0, out=cumulative)
        group_modes = np.minimum((cumulative < draws[columns]).sum(axis=0), k - 1)
        lanes = np.arange(len(columns))[:, None]
        mu = means[group_modes, lanes]
        sigma = stds[group_modes, lanes]
        alpha[columns] = np.clip((group_values - mu) / (4.0 * sigma), -1.0, 1.0)
        modes[columns] = group_modes
    return alpha, modes
