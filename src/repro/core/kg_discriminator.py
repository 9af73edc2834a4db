"""The knowledge-guided discriminator ``D_KG`` (paper section III-B-1).

``D_KG`` judges whether a generated attribute combination is *valid*
according to the NetworkKG, independently of whether it looks statistically
real.  It has two parts:

* a **hard rule check**: the generated batch is decoded back into records
  and scored 0/1 by the :class:`~repro.knowledge.validator.BatchValidator`
  (an exact KG query, the paper's ``Q``);
* a **learned refinement head**: a small MLP over the transformed blocks of
  the KG-constrained columns, trained to separate valid combinations
  (real rows and combinations enumerated from the knowledge graph) from
  invalid ones (corrupted rows and generated rows the hard check rejects).
  The head provides the *differentiable* path through which the generator
  receives the knowledge signal (equation 3: ``D_C = D_KG + D_M``).
"""

from __future__ import annotations

import numpy as np

from repro.knowledge.reasoner import KGReasoner
from repro.knowledge.validator import BatchValidator
from repro.neural.layers import Dense, LeakyReLU
from repro.neural.losses import BinaryCrossEntropy
from repro.neural.network import Sequential
from repro.neural.optimizers import Adam
from repro.tabular.table import Table, factorize_values
from repro.tabular.transformer import DataTransformer

__all__ = ["KnowledgeGuidedDiscriminator"]

#: Semantic roles whose columns the knowledge graph constrains.
_KG_ROLES = (
    "event_type",
    "protocol",
    "source_ip",
    "destination_ip",
    "source_port",
    "destination_port",
)


class KnowledgeGuidedDiscriminator:
    """Dual (hard + learned) validity discriminator."""

    def __init__(
        self,
        reasoner: KGReasoner,
        transformer: DataTransformer,
        hidden_dims: tuple[int, ...] = (64,),
        learning_rate: float = 2e-3,
        learned_head: bool = True,
        rng: np.random.Generator | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        self.reasoner = reasoner
        self.validator = BatchValidator(reasoner)
        self.transformer = transformer
        self.learned_head = learned_head
        self.rng = rng if rng is not None else np.random.default_rng()

        schema_names = set(transformer.schema.names)
        self.kg_columns: list[str] = [
            reasoner.field_map[role]
            for role in _KG_ROLES
            if reasoner.field_map.get(role) in schema_names
        ]
        if not self.kg_columns:
            raise ValueError(
                "none of the knowledge-graph roles map to a column of the table schema"
            )
        self._role_by_column: dict[str, str] = {
            reasoner.field_map[role]: role
            for role in _KG_ROLES
            if reasoner.field_map.get(role) in schema_names
        }
        self._event_column = reasoner.field_map["event_type"]
        self._valid_mask_cache: dict[tuple[str, str], np.ndarray | None] = {}
        #: ``(column, event) -> global column indices`` of the valid
        #: categories -- the scatter targets of ``valid_set_loss_and_grad``.
        self._valid_idx_cache: dict[tuple[str, str], np.ndarray | None] = {}
        self._slices: list[slice] = [
            slice(transformer.column_info(name).start, transformer.column_info(name).end)
            for name in self.kg_columns
        ]
        self.input_dim = sum(s.stop - s.start for s in self._slices)

        self.head: Sequential | None = None
        self._optimizer: Adam | None = None
        self._loss = BinaryCrossEntropy(from_logits=True)
        if learned_head:
            layers = []
            width = self.input_dim
            for hidden in hidden_dims:
                layers.append(Dense(width, hidden, rng=self.rng, init="he", dtype=dtype))
                layers.append(LeakyReLU(0.2))
                width = hidden
            layers.append(Dense(width, 1, rng=self.rng, init="glorot", dtype=dtype))
            self.head = Sequential(layers)
            self.head.consolidate()
            self._optimizer = Adam(self.head.parameters(), lr=learning_rate, betas=(0.5, 0.9))

    # ------------------------------------------------------------------ #
    # Hard (exact) validity
    # ------------------------------------------------------------------ #
    def hard_scores(self, table: Table) -> np.ndarray:
        """Exact 0/1 validity of decoded records (the KG query ``Q``)."""
        return self.validator.table_scores(table)

    def _score_plan(self) -> list[tuple]:
        """Per-column decode recipes for the KG-relevant columns only.

        Validity depends solely on the columns named in the reasoner's
        ``field_map``, so scoring a transformed batch does not need the full
        ``inverse_transform`` (which decodes every column and materialises a
        :class:`Table`).  Each recipe decodes one column with the exact
        arithmetic of the transformer's decode plan -- per-block argmax for
        one-hot columns, ``clip(clip(alpha) * 4 * sigma + mu)`` for
        mode-normalised ones -- so the decoded values, and therefore the
        scores, are bit-identical to the full-decode path.
        """
        plan = getattr(self, "_score_plan_cache", None)
        if plan is None:
            from repro.tabular.encoders import MinMaxScaler, ModeSpecificNormalizer

            plan = []
            schema = self.transformer.schema
            for name in dict.fromkeys(self.validator.reasoner.field_map.values()):
                if name not in schema.names:
                    continue
                info = self.transformer.column_info(name)
                encoder = self.transformer.encoder(name)
                spec = schema.column(name)
                if isinstance(encoder, ModeSpecificNormalizer):
                    lo = spec.minimum if spec.minimum is not None else -np.inf
                    hi = spec.maximum if spec.maximum is not None else np.inf
                    plan.append(
                        ("mode", name, info.start, info.end,
                         encoder.gmm.means, encoder.gmm.stds, lo, hi)
                    )
                elif isinstance(encoder, MinMaxScaler):
                    plan.append(("minmax", name, info.start, encoder,
                                 spec.minimum, spec.maximum))
                else:
                    plan.append(("onehot", name, info.start, info.end,
                                 encoder._categories_array))
            self._score_plan_cache = plan
        return plan

    def _validity_tables(self):
        """Precoded validity lookups over the encoders' category lists.

        A transformed row's decoded categorical values always come from the
        fixed per-column category lists, so every (event, category) validity
        decision can be resolved once up front: per membership role a
        ``(n_events, n_categories)`` boolean table, per port column either a
        category table (one-hot ports) or per-event integer bounds
        (mode-normalised source ports).  Scoring a batch is then a handful
        of argmax + table gathers with no per-value hashing.  The tables
        replicate :meth:`KGReasoner.validity_mask` exactly: ``None`` events
        skip all checks, unknown events are invalid, empty constraint sets
        leave a role unconstrained, and unparseable port categories violate
        whenever the row's event is known.  Returns ``None`` when the
        layout does not fit (then scoring falls back to the batched
        reasoner query).
        """
        cached = getattr(self, "_validity_tables_cache", "unset")
        if cached != "unset":
            return cached
        from repro.knowledge.reasoner import _numeric_column
        from repro.tabular.encoders import OneHotEncoder

        reasoner = self.validator.reasoner
        fm = reasoner.field_map
        tr = self.transformer
        names = set(tr.schema.names)
        event_col = fm["event_type"]
        dst_col = fm.get("destination_port")
        src_col = fm.get("source_port")
        usable = event_col in names and isinstance(tr.encoder(event_col), OneHotEncoder)
        if dst_col in names and not isinstance(tr.encoder(dst_col), OneHotEncoder):
            # Continuous destination ports need per-row set membership;
            # leave that to the reasoner's batched path.
            usable = False
        for role in reasoner._MEMBERSHIP_ATTRS:
            col = fm.get(role)
            if col in names and not isinstance(tr.encoder(col), OneHotEncoder):
                usable = False
        if not usable:
            self._validity_tables_cache = None
            return None

        events = list(tr.encoder(event_col).categories)
        n_events = len(events)
        skip = np.zeros(n_events, dtype=bool)
        base = np.ones(n_events, dtype=bool)
        constraints: list = [None] * n_events
        for e, value in enumerate(events):
            if value is None:
                skip[e] = True
                continue
            c = reasoner._constraints.get(value)
            constraints[e] = c
            if c is None:
                base[e] = False

        def port_table(col: str, check) -> tuple[int, int, np.ndarray]:
            cats = np.empty(len(tr.encoder(col).categories), dtype=object)
            cats[:] = list(tr.encoder(col).categories)
            floats, parseable = _numeric_column(cats)
            ints = np.zeros(len(cats), dtype=np.int64)
            ints[parseable] = np.trunc(floats[parseable]).astype(np.int64)
            tbl = np.ones((n_events, len(cats)), dtype=bool)
            for e, c in enumerate(constraints):
                if skip[e] or c is None:
                    continue
                ok = check(c, ints)
                tbl[e] = parseable if ok is None else parseable & ok
            info = tr.column_info(col)
            return col, info.start, info.end, tbl

        member = []
        for role, attr in reasoner._MEMBERSHIP_ATTRS.items():
            col = fm.get(role)
            if col not in names:
                continue
            cats = list(tr.encoder(col).categories)
            tbl = np.ones((n_events, len(cats)), dtype=bool)
            for e, c in enumerate(constraints):
                if skip[e] or c is None:
                    continue
                allowed = getattr(c, attr)
                if not allowed:
                    continue
                tbl[e] = np.fromiter(
                    (v in allowed for v in cats), dtype=bool, count=len(cats)
                )
            info = tr.column_info(col)
            member.append((col, info.start, info.end, tbl))

        def dst_check(c, ints):
            if not c.destination_ports and c.destination_port_range is None:
                return None  # unconstrained: only parseability applies
            ok = np.fromiter(
                (int(p) in c.destination_ports for p in ints),
                dtype=bool,
                count=len(ints),
            )
            if c.destination_port_range is not None:
                low, high = c.destination_port_range
                ok |= (ints >= low) & (ints <= high)
            return ok

        dst = port_table(dst_col, dst_check) if dst_col in names else None

        src = None
        if src_col in names:
            encoder = tr.encoder(src_col)
            if isinstance(encoder, OneHotEncoder):

                def src_check(c, ints):
                    if c.source_port_range is None:
                        return None
                    low, high = c.source_port_range
                    return (ints >= low) & (ints <= high)

                # For range-free events validity_mask applies no source-port
                # check at all, so the table row must be all-True there --
                # port_table's parseable-only default is wrong for them.
                _, start, end, tbl = port_table(src_col, src_check)
                for e, c in enumerate(constraints):
                    if not skip[e] and c is not None and c.source_port_range is None:
                        tbl[e] = True
                src = ("table", src_col, start, end, tbl)
            else:
                info = tr.column_info(src_col)
                spec = tr.schema.column(src_col)
                lo_bound = spec.minimum if spec.minimum is not None else -np.inf
                hi_bound = spec.maximum if spec.maximum is not None else np.inf
                lo = np.full(n_events, np.iinfo(np.int64).min, dtype=np.int64)
                hi = np.full(n_events, np.iinfo(np.int64).max, dtype=np.int64)
                active = np.zeros(n_events, dtype=bool)
                for e, c in enumerate(constraints):
                    if skip[e] or c is None or c.source_port_range is None:
                        continue
                    active[e] = True
                    lo[e], hi[e] = c.source_port_range
                src = (
                    "range", src_col, info.start, info.end,
                    encoder.gmm.means, encoder.gmm.stds,
                    lo_bound, hi_bound, lo, hi, active,
                )

        info_e = tr.column_info(event_col)
        self._validity_tables_cache = (info_e.start, info_e.end, base, member, dst, src)
        return self._validity_tables_cache

    def _pool_tables(self):
        """The :meth:`_validity_tables` checks in the order a negative pool
        is judged, as ``(event_column, base, checks, src_range)``.

        ``checks`` lists ``(column, table)`` for every category-coded check:
        membership roles, then the destination port, then a one-hot source
        port; ``src_range`` is ``(column, lo, hi, active)`` for a
        mode-normalised source port.  Returns ``None`` when the tables are
        unavailable.
        """
        cached = getattr(self, "_pool_tables_cache", "unset")
        if cached != "unset":
            return cached
        tables = self._validity_tables()
        if tables is None:
            self._pool_tables_cache = None
            return None
        _, _, base, member, dst, src = tables
        checks = [(col, tbl) for col, _, _, tbl in member]
        if dst is not None:
            checks.append((dst[0], dst[3]))
        src_range = None
        if src is not None:
            if src[0] == "table":
                checks.append((src[1], src[4]))
            else:
                src_range = (src[1], src[8], src[9], src[10])
        event_col = self.validator.reasoner.field_map["event_type"]
        self._pool_tables_cache = (event_col, base, checks, src_range)
        return self._pool_tables_cache

    def _pool_scores(self, pool: dict[str, np.ndarray], record) -> np.ndarray:
        """Validity of a negative pool held as column arrays, exactly
        ``KGReasoner.is_valid`` of its records.

        ``pool`` holds :meth:`DataTransformer.column_arrays`-style columns;
        ``record(i)`` builds row ``i``'s record dict.  Rows are judged by
        table lookup, check by check in the order of :meth:`_pool_tables`;
        a row whose event, or whose value at the first check it does not
        fail, is outside the encoder's categories is judged by the reasoner
        on its record instead, and a ``None`` event is valid.
        """
        tables = self._pool_tables()
        if tables is None:
            n = len(next(iter(pool.values())))
            return self.validator.record_scores([record(i) for i in range(n)])
        event_col, base, checks, src_range = tables
        events = pool[event_col]
        known = events >= 0
        event = np.where(known, events, 0)
        fallback = ~known
        pending = known & base[event]
        for col, tbl in checks:
            codes = pool[col]
            unknown = pending & (codes < 0)
            fallback |= unknown
            pending &= ~unknown & tbl[event, np.maximum(codes, 0)]
        if src_range is not None:
            col, lo, hi, active = src_range
            # ``int(float(port))`` bounds check; a NaN (or infinite) port
            # is invalid.
            port = np.trunc(pool[col])
            pending &= ~active[event] | ((port >= lo[event]) & (port <= hi[event]))
        scores = pending.astype(np.float64)
        reasoner = self.validator.reasoner
        for i in np.flatnonzero(fallback):
            row = record(i)
            valid = row[event_col] is None or reasoner.is_valid(row)
            scores[i] = 1.0 if valid else 0.0
        return scores

    def _hard_scores_fast(self, matrix: np.ndarray) -> np.ndarray:
        """Exact validity of transformed rows, decoding KG columns only."""
        tables = self._validity_tables()
        if tables is not None:
            e_start, e_end, base, member, dst, src = tables
            event = np.argmax(matrix[:, e_start:e_end], axis=1)
            valid = base[event]
            for _, start, end, tbl in member:
                valid &= tbl[event, np.argmax(matrix[:, start:end], axis=1)]
            if dst is not None:
                _, start, end, tbl = dst
                valid &= tbl[event, np.argmax(matrix[:, start:end], axis=1)]
            if src is not None:
                if src[0] == "table":
                    _, _, start, end, tbl = src
                    valid &= tbl[event, np.argmax(matrix[:, start:end], axis=1)]
                else:
                    (_, _, start, end, means, stds,
                     lo_bound, hi_bound, lo, hi, active) = src
                    act = active[event]
                    if act.any():
                        modes = np.argmax(matrix[:, start + 1 : end], axis=1)
                        alpha = np.clip(matrix[:, start], -1.0, 1.0)
                        x = np.clip(
                            alpha * 4.0 * stds[modes] + means[modes], lo_bound, hi_bound
                        )
                        finite = np.isfinite(x)
                        ints = np.trunc(np.where(finite, x, 0.0)).astype(np.int64)
                        valid &= ~act | (finite & (ints >= lo[event]) & (ints <= hi[event]))
            return valid.astype(np.float64)

        columns: dict[str, np.ndarray] = {}
        for recipe in self._score_plan():
            kind, name = recipe[0], recipe[1]
            if kind == "onehot":
                _, _, start, end, categories = recipe
                columns[name] = categories[np.argmax(matrix[:, start:end], axis=1)]
            elif kind == "mode":
                _, _, start, end, means, stds, lo, hi = recipe
                modes = np.argmax(matrix[:, start + 1 : end], axis=1)
                alpha = np.clip(matrix[:, start], -1.0, 1.0)
                columns[name] = np.clip(alpha * 4.0 * stds[modes] + means[modes], lo, hi)
            else:
                _, _, start, encoder, minimum, maximum = recipe
                values = encoder.inverse_transform(matrix[:, start])
                if minimum is not None:
                    values = np.maximum(values, minimum)
                if maximum is not None:
                    values = np.minimum(values, maximum)
                columns[name] = values
        return self.validator.reasoner.validity_mask(columns).astype(np.float64)

    def hard_scores_matrix(self, matrix: np.ndarray, batch_size: int = 0) -> np.ndarray:
        """Exact validity of transformed rows (decoded internally).

        Only the KG-relevant columns are decoded (see :meth:`_score_plan`);
        the result is bit-identical to scoring the fully decoded table.
        With ``batch_size > 0`` the matrix is decoded and scored in chunks,
        which bounds peak memory when callers estimate validity over large
        generated samples.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if batch_size <= 0 or len(matrix) <= batch_size:
            return self._hard_scores_fast(matrix)
        chunks = [
            self._hard_scores_fast(matrix[start : start + batch_size])
            for start in range(0, len(matrix), batch_size)
        ]
        return np.concatenate(chunks)

    def validity_rate(self, matrix: np.ndarray, batch_size: int = 512) -> float:
        """Mean exact validity of a transformed batch (scored in chunks).

        This is the one code path shared by the trainer's
        ``_estimate_validity`` and the engine's validity logging callback.
        """
        if len(matrix) == 0:
            return float("nan")
        return float(self.hard_scores_matrix(matrix, batch_size=batch_size).mean())

    # ------------------------------------------------------------------ #
    # Learned refinement head
    # ------------------------------------------------------------------ #
    def _extract(self, matrix: np.ndarray) -> np.ndarray:
        out = np.concatenate([matrix[:, s] for s in self._slices], axis=1)
        if self.head is not None and out.dtype != self.head.dtype:
            # Real rows stay float64 in the transformer; a float32 head
            # rounds them once at its input boundary.
            out = out.astype(self.head.dtype)
        return out

    def _scatter(self, grad_kg: np.ndarray, width: int) -> np.ndarray:
        grad = np.zeros((grad_kg.shape[0], width), dtype=grad_kg.dtype)
        cursor = 0
        for s in self._slices:
            size = s.stop - s.start
            grad[:, s] = grad_kg[:, cursor : cursor + size]
            cursor += size
        return grad

    def head_logits(self, matrix: np.ndarray, training: bool = True) -> np.ndarray:
        """Learned validity logits for a batch of transformed rows."""
        if self.head is None:
            raise RuntimeError("learned head is disabled")
        return self.head.forward(self._extract(matrix), training=training)

    def head_scores(self, matrix: np.ndarray) -> np.ndarray:
        """Learned validity probabilities in [0, 1]."""
        logits = self.head_logits(matrix, training=False)
        return 1.0 / (1.0 + np.exp(-np.clip(logits[:, 0], -60, 60)))

    # ------------------------------------------------------------------ #
    # Training data for the head
    # ------------------------------------------------------------------ #
    def _corruption_choices(self) -> tuple[list, list]:
        """Per KG column, what a corruption can write: ``(column,
        categories, codes)`` for categorical columns, ``(column, low,
        high)`` for continuous ones (cached)."""
        cached = getattr(self, "_corruption_choices_cache", None)
        if cached is None:
            schema = self.transformer.schema
            categorical, continuous = [], []
            for name in self.kg_columns:
                spec = schema.column(name)
                if spec.is_categorical:
                    index = self.transformer.encoder(name)._index
                    codes = [index.get(value, -1) for value in spec.categories]
                    categorical.append((name, spec.categories, codes))
                elif spec.is_continuous:
                    low = spec.minimum if spec.minimum is not None else 0.0
                    high = spec.maximum if spec.maximum is not None else 65535.0
                    continuous.append((name, low, high))
            cached = self._corruption_choices_cache = (categorical, continuous)
        return cached

    def _corruptions(self, n: int) -> list[tuple[str, object, object]]:
        """Draw ``n`` random perturbations of KG-constrained attributes.

        Each is ``(column, value, stored)``: the new raw value and what the
        column array holds for it (the category's code, or the float).
        The scalar draws are one row's after another, in a fixed order.
        """
        categorical, continuous = self._corruption_choices()
        rng = self.rng
        edits = []
        for _ in range(n):
            if categorical and (not continuous or rng.uniform() < 0.7):
                column, categories, codes = categorical[rng.integers(0, len(categorical))]
                j = rng.integers(0, len(categories))
                edits.append((column, categories[j], codes[j]))
            else:
                column, low, high = continuous[rng.integers(0, len(continuous))]
                value = float(rng.uniform(low, high))
                edits.append((column, value, value))
        return edits

    def _negatives(
        self, table: Table, columns: dict[str, np.ndarray], rows: np.ndarray
    ) -> np.ndarray | None:
        """Encoded corrupted copies of ``table``'s ``rows`` that the exact
        check rejects (``None`` when it rejects none).

        The pool stays in column arrays from corruption to encoding; only a
        row the lookup tables cannot judge becomes a record dict.
        """
        pool = {name: values[rows] for name, values in columns.items()}
        edits = self._corruptions(len(rows))
        for i, (column, _, stored) in enumerate(edits):
            pool[column][i] = stored

        def record(i: int) -> dict:
            row = table.row(int(rows[i]))
            column, value, _ = edits[i]
            row[column] = value
            return row

        invalid = np.flatnonzero(self._pool_scores(pool, record) == 0.0)
        if not invalid.size:
            return None
        return self.transformer.encode(
            {name: values[invalid] for name, values in pool.items()}, rng=self.rng
        )

    def train_step(
        self,
        real_table: Table,
        real_matrix: np.ndarray,
        fake_matrix: np.ndarray,
        negatives: int = 64,
        real_valid: np.ndarray | None = None,
        rows: np.ndarray | None = None,
        columns: dict[str, np.ndarray] | None = None,
    ) -> float:
        """One optimisation step of the learned head.

        Positives: the real rows (valid by construction of the KG) -- plus
        their exact validity is re-checked so mislabelled rows are dropped.
        Negatives: corrupted copies of the first ``negatives`` real rows
        that the hard check rejects, plus generated rows the hard check
        rejects.

        The batch is ``real_table``'s ``rows`` (every row when ``None``),
        encoded as ``real_matrix``.  A caller that draws many batches from
        one table (the KiNETGAN trainer) passes the whole table with each
        batch's ``rows``, the batch's ``real_valid`` scores gathered from a
        per-fit cache, and ``columns``, the table's
        :meth:`~repro.tabular.transformer.DataTransformer.column_arrays`;
        the validator query and the category coding then run once per fit.
        """
        if self.head is None or self._optimizer is None:
            return 0.0
        if real_valid is None:
            batch = real_table if rows is None else real_table.select_rows(rows)
            real_valid = self.validator.table_scores(batch)
        if columns is None:
            columns = self.transformer.column_arrays(real_table)
        if rows is None:
            rows = np.arange(real_table.n_rows)
        invalid_matrix = self._negatives(real_table, columns, rows[: max(negatives, 1)])

        inputs = [real_matrix]
        targets = [real_valid[:, None]]
        if invalid_matrix is not None:
            inputs.append(invalid_matrix)
            targets.append(np.zeros((len(invalid_matrix), 1)))
        if fake_matrix is not None and len(fake_matrix):
            fake_valid = self.hard_scores_matrix(fake_matrix)
            inputs.append(fake_matrix)
            targets.append(fake_valid[:, None])

        batch = np.concatenate(inputs, axis=0)
        target = np.concatenate(targets, axis=0)
        logits = self.head.forward(self._extract(batch), training=True)
        loss = self._loss.forward(logits, target)
        self.head.zero_grad()
        self.head.backward(self._loss.backward())
        self._optimizer.step()
        return loss

    # ------------------------------------------------------------------ #
    # Valid-set constraint (the paper's direct KG query for condition C)
    # ------------------------------------------------------------------ #
    def _valid_mask(self, column: str, event_name: str) -> np.ndarray | None:
        """Boolean mask of the column's categories that the KG allows for
        ``event_name``, or ``None`` when the KG does not constrain them."""
        key = (column, event_name)
        if key in self._valid_mask_cache:
            return self._valid_mask_cache[key]
        mask: np.ndarray | None = None
        role = self._role_by_column.get(column)
        if (
            role is not None
            and role not in ("event_type", "source_port")
            and self.reasoner.has_event(event_name)
        ):
            try:
                valid = self.reasoner.valid_values(role, event_name)
            except ValueError:
                valid = set()
            if valid:
                categories = list(self.transformer.encoder(column).categories)
                normalised = set(valid)
                for value in list(valid):
                    try:
                        normalised.add(int(float(value)))
                    except (TypeError, ValueError):
                        pass
                flags = []
                for category in categories:
                    hit = category in normalised
                    if not hit:
                        try:
                            hit = int(float(category)) in normalised
                        except (TypeError, ValueError):
                            hit = False
                    flags.append(hit)
                candidate = np.asarray(flags, dtype=bool)
                # An all-true or all-false mask carries no usable signal.
                if candidate.any() and not candidate.all():
                    mask = candidate
        self._valid_mask_cache[key] = mask
        return mask

    def _valid_indices(self, column: str, event_name: str, start: int) -> np.ndarray | None:
        """Global column indices of the KG-valid categories, cached.

        The cached array is exactly ``start + nonzero(_valid_mask(...))``;
        caching it keeps the hot loop of :meth:`valid_set_loss_and_grad`
        free of per-call mask-to-index conversions.
        """
        key = (column, event_name)
        if key in self._valid_idx_cache:
            return self._valid_idx_cache[key]
        mask = self._valid_mask(column, event_name)
        idx = None if mask is None else start + np.nonzero(mask)[0]
        self._valid_idx_cache[key] = idx
        return idx

    def valid_set_loss_and_grad(
        self, fake_matrix: np.ndarray, condition_values
    ) -> tuple[float, np.ndarray]:
        """Penalise generator probability mass on KG-invalid categories.

        Following section III-B-1, the knowledge graph is queried with the
        condition-vector values (in particular the event type) and returns,
        per KG-constrained attribute, the set of valid values.  The loss for
        each constrained one-hot block is ``-log`` of the generated
        probability mass inside the valid set, so the generator is pushed to
        place its mass on combinations the KG deems valid.  Unlike the
        learned refinement head this signal is exact from the first epoch.

        ``condition_values`` is either a list of per-row ``{attribute:
        value}`` dicts or a :class:`~repro.tabular.sampler.ConditionBatch`
        (the trainer's hot path); either way, rows are grouped by event type
        so each (event, column) constraint is evaluated with one batched
        masked sum rather than a Python loop over rows.
        """
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
        # Row partition per event, computed once and shared by every column.
        event_rows = [
            np.nonzero(event_codes == event_id)[0] for event_id in range(len(event_names))
        ]
        for column in self.kg_columns:
            if column == self._event_column or not schema.column(column).is_categorical:
                continue
            info = self.transformer.column_info(column)
            start, end = info.start, info.end
            # One clipped copy of the block per column, shared by every
            # event's row select below (clip is elementwise, so
            # clip-then-select equals select-then-clip bit for bit; the
            # contiguous block makes the per-event row gathers cheap).
            block = np.clip(fake_matrix[:, start:end], eps, 1.0)
            gblock: np.ndarray | None = None
            for event_id, event_name in enumerate(event_names):
                if event_name is None:
                    continue
                # Cached scatter targets; ``None`` means the KG does not
                # constrain this (column, event) pair.
                idx = self._valid_indices(column, str(event_name), start)
                if idx is None:
                    continue
                mask = self._valid_mask(column, str(event_name))
                rows = event_rows[event_id]
                mass = block[rows][:, mask].sum(axis=1)
                np.clip(mass, eps, 1.0, out=mass)
                # Events partition the rows, so each (row, column) cell is
                # written by exactly one event: plain assignment into a
                # per-column buffer replaces the fancy ``+=`` on the full
                # gradient (read-modify-write of a zero is the same write).
                if gblock is None:
                    gblock = np.zeros((fake_matrix.shape[0], end - start), dtype=fake_matrix.dtype)
                gblock[rows[:, None], (idx - start)[None, :]] = -1.0 / mass[:, None]
                np.log(mass, out=mass)
                total_loss += float(-mass.sum())
                total_terms += len(rows)
            if gblock is not None:
                grad[:, start:end] = gblock
        if total_terms == 0:
            return 0.0, grad
        grad /= total_terms
        return total_loss / total_terms, grad

    # ------------------------------------------------------------------ #
    # Generator feedback
    # ------------------------------------------------------------------ #
    def generator_loss_and_grad(self, fake_matrix: np.ndarray) -> tuple[float, np.ndarray]:
        """Non-saturating validity loss and its gradient w.r.t. the fake batch.

        The generator is pushed to produce combinations the learned head
        deems valid; the gradient is scattered back to the full transformed
        width so the trainer can add it to the adversarial gradient.
        """
        if self.head is None:
            return 0.0, np.zeros_like(fake_matrix)
        logits = self.head.forward(self._extract(fake_matrix), training=True)
        target = np.ones_like(logits)
        loss = self._loss.forward(logits, target)
        grad_logits = self._loss.backward()
        self.head.zero_grad()
        grad_kg_input = self.head.backward(grad_logits)
        # Head gradients from this pass must not update the head itself.
        self.head.zero_grad()
        return loss, self._scatter(grad_kg_input, fake_matrix.shape[1])

    # ------------------------------------------------------------------ #
    def combined_scores(self, matrix: np.ndarray) -> np.ndarray:
        """``D_KG`` score per row: exact validity plus the learned probability.

        This is the quantity added to ``D_M`` in equation 3 when reporting
        discriminator scores; the hard part dominates (it is exact), the
        learned part keeps the signal smooth near the decision boundary.
        """
        hard = self.hard_scores_matrix(matrix)
        if self.head is None:
            return hard
        return 0.5 * (hard + self.head_scores(matrix))
