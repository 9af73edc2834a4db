"""Likelihood fitness.

The paper validates KiNETGAN through "likelihood fitness" (section I /
conclusion): the synthetic data should be likely under a density model of
the real data, and a density model fitted to the synthetic data should
assign high likelihood to held-out real data (the L_syn / L_test pair
introduced by the CTGAN paper).  Continuous columns are modelled with the
same EM Gaussian mixtures the transformer uses; categorical columns with
smoothed empirical category distributions.
"""

from __future__ import annotations

import numpy as np

from repro.tabular.encoders import GaussianMixtureModel, fit_mixtures
from repro.tabular.table import Table

__all__ = ["likelihood_fitness"]

_EPS = 1e-9


def _table_log_likelihood(model_table: Table, scored_table: Table, max_modes: int) -> float:
    """Mean per-row log-likelihood of ``scored_table`` under a density model
    fitted column-wise on ``model_table`` (columns treated independently)."""
    mixtures = {
        spec.name: GaussianMixtureModel(max_components=max_modes)
        for spec in model_table.schema
        if spec.is_continuous
    }
    fit_mixtures(list(mixtures.values()), [model_table.column(name) for name in mixtures])
    total = 0.0
    for spec in model_table.schema:
        model_values = model_table.column(spec.name)
        scored_values = scored_table.column(spec.name)
        if spec.is_continuous:
            total += mixtures[spec.name].log_likelihood(scored_values.astype(np.float64))
        else:
            categories = spec.categories if spec.categories else tuple(
                dict.fromkeys(model_values)
            )
            counts = {value: 1.0 for value in categories}  # add-one smoothing
            for value in model_values:
                if value in counts:
                    counts[value] += 1.0
            norm = sum(counts.values())
            log_probs = {value: np.log(count / norm) for value, count in counts.items()}
            floor = np.log(_EPS)
            total += float(
                np.mean([log_probs.get(value, floor) for value in scored_values])
            )
    return total


def likelihood_fitness(
    real_train: Table,
    real_test: Table,
    synthetic: Table,
    max_modes: int = 10,
) -> dict[str, float]:
    """The (L_syn, L_test) likelihood-fitness pair.

    * ``l_syn``: likelihood of the synthetic data under a density model of
      the real training data -- high when the synthesizer stays on the real
      manifold.
    * ``l_test``: likelihood of held-out real data under a density model of
      the synthetic data -- high when the synthetic data covers the real
      distribution (penalises mode collapse).
    """
    return {
        "l_syn": _table_log_likelihood(real_train, synthetic, max_modes),
        "l_test": _table_log_likelihood(synthetic, real_test, max_modes),
    }
