"""The knowledge head trains bit-identically on array-encoded negatives.

Each step's KG negatives are corrupted, judged and encoded as column
arrays (``KnowledgeGuidedDiscriminator._negatives``).  The digests below
were recorded with the record-dict pipeline that preceded it (cloned
records, ``Table.from_records`` and a full ``DataTransformer.transform``
per step), so they pin the array pipeline to that behaviour: the seeded
loss history, the KG-head weights and a 256-row sample of a fit, for a
pool of one row, of 64 rows and of more rows than the batch, plus the
``real_table=`` path of ``train_step`` with categories the encoders have
never seen.  Digests are comparable only under the numpy / BLAS build
they were recorded with (:data:`RECORDED_ENVIRONMENT`, as in
``tests/runtime/test_parity.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.core.kg_discriminator import KnowledgeGuidedDiscriminator
from repro.datasets import load_lab_iot, load_unsw_nb15
from repro.engine import sampling_rng
from repro.knowledge.builder import build_network_kg
from repro.knowledge.reasoner import KGReasoner
from repro.tabular.table import Table
from repro.tabular.transformer import DataTransformer

RECORDED_ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas", "blas_version": "0.3.31.188.0"}

#: sha256 of (loss history, KG-head weights, 256-row sample) per fit.
FIT_DIGESTS = {
    ("lab_iot", 1): "5b95e5e384fb4be32459abebd19b260f2591a2af79bfb96541641db6c75175f0",
    ("lab_iot", 64): "5139f49b2e530f870222ec48e5811e4122e4a3043b3009d95566808df0fb9a62",
    ("lab_iot", 500): "5139f49b2e530f870222ec48e5811e4122e4a3043b3009d95566808df0fb9a62",
    ("unsw_nb15", 1): "9735eb6fc1f4fab3c78b6286c8b87362bb4248775be42bc1e9a53507e447129a",
    ("unsw_nb15", 64): "c154033edb80dda0f23cbfb0df6ffe2217b81c2b8f44e114f08308ccba5d68a6",
    ("unsw_nb15", 500): "c154033edb80dda0f23cbfb0df6ffe2217b81c2b8f44e114f08308ccba5d68a6",
}
#: sha256 of the losses and head weights of direct ``train_step`` calls.
TRAIN_STEP_DIGEST = "06655b709d0e28dc6ad3f0dcd48e5c86e8fa1b726441478db2293c075a5ad5f7"

LOADERS = {"lab_iot": load_lab_iot, "unsw_nb15": load_unsw_nb15}


def _digest(*parts) -> str:
    hasher = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, Table):
            value = [(name, value.column(name).tolist()) for name in value.schema.names]
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        if isinstance(value, np.ndarray):
            hasher.update(f"array:{value.dtype.str}:{value.shape};".encode())
            hasher.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                feed(key)
                feed(value[key])
        elif isinstance(value, (list, tuple)):
            hasher.update(f"list:{len(value)};".encode())
            for item in value:
                feed(item)
        else:
            if isinstance(value, np.generic):
                value = value.item()
            hasher.update(f"{type(value).__name__}:{value!r};".encode())

    feed(parts)
    return hasher.hexdigest()


def _check(digest: str, expected: str) -> None:
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
    assert digest == expected, f"computed {digest}, committed {expected}"


def fit_digest(dataset: str, negatives: int) -> str:
    bundle = LOADERS[dataset](n_records=400, seed=0)
    config = KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        lambda_knowledge=2.0,
        knowledge_negatives_per_batch=negatives,
        seed=11,
    )
    model = KiNETGAN(config).fit(
        bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
    )
    head = model.trainer.kg_discriminator.head.state_dict()
    sample = model.sample(256, rng=sampling_rng(5))
    return _digest(model.history, head, sample)


def train_step_digest() -> str:
    bundle = load_lab_iot(n_records=300, seed=1)
    table = bundle.table
    reasoner = KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)
    transformer = DataTransformer(seed=2).fit(table)
    rng = np.random.default_rng(3)
    kg = KnowledgeGuidedDiscriminator(reasoner, transformer, hidden_dims=(16,), rng=rng)
    # Values outside the encoders' categories send rows to the reasoner
    # (an unknown port, an unknown event, and a valid port spelled as a
    # string); source ports on the bounds of their events' ranges.
    records = table.head(80).to_records()
    for i in range(0, 80, 7):
        records[i]["dst_port"] = 31337
    for i in range(3, 80, 11):
        records[i]["event_type"] = "never-seen"
    for i in range(1, 80, 5):
        records[i]["dst_port"] = str(records[i]["dst_port"])
    for i in range(2, 80, 4):
        records[i]["src_port"] = 65535.0 if i % 8 else 49152.0
    odd = Table.from_records(table.schema, records)
    losses = []
    for negatives, batch in ((1, table.head(40)), (64, odd), (200, table.head(120)), (64, odd)):
        matrix = transformer.transform(batch, rng=rng)
        fake = rng.normal(size=(16, transformer.output_dim))
        losses.append(kg.train_step(batch, matrix, fake, negatives=negatives))
    return _digest(losses, kg.head.state_dict(), rng.integers(0, 1 << 62))


@pytest.mark.parametrize("dataset,negatives", sorted(FIT_DIGESTS))
def test_fit_matches_record_pipeline(dataset, negatives):
    _check(fit_digest(dataset, negatives), FIT_DIGESTS[(dataset, negatives)])


def test_real_table_train_step_matches_record_pipeline():
    _check(train_step_digest(), TRAIN_STEP_DIGEST)
