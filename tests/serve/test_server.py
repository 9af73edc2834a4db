"""The HTTP serving front-end: parity, backpressure, deadlines, drain.

The headline acceptance: an HTTP client on localhost gets rows
bit-identical to in-process ``model.sample(n, seed)``; a full admission
queue answers 429 with ``Retry-After``; drain serves everything admitted
and 503s the rest.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import orjson
import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import sampling_rng
from repro.serve import (
    SamplingHTTPServer,
    ServingPool,
    fetch_json,
    request_samples,
    save_model,
)
from repro.serve.server import _dumps, _Handler, table_from_wire, table_to_wire
from repro.tabular.schema import ColumnSpec, TableSchema
from repro.tabular.table import Table


def small_config(seed: int = 0) -> KiNETGANConfig:
    return KiNETGANConfig(
        embedding_dim=16,
        generator_dims=(32,),
        discriminator_dims=(32,),
        epochs=2,
        batch_size=64,
        knowledge_negatives_per_batch=16,
        max_modes=4,
        seed=seed,
    )


@pytest.fixture(scope="module")
def fitted_kinetgan(lab_bundle_small):
    model = KiNETGAN(small_config())
    model.fit(
        lab_bundle_small.table.head(400),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    return model


@pytest.fixture(scope="module")
def kinetgan_artifact(fitted_kinetgan, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("served") / "kinetgan"
    save_model(fitted_kinetgan, directory, metadata={"dataset": "lab_iot"})
    return directory


@pytest.fixture(scope="module")
def served(kinetgan_artifact):
    """A running server over a thread pool; yields (url, pool, server)."""
    with ServingPool({"kinetgan": kinetgan_artifact}, executor="thread:2") as pool:
        with SamplingHTTPServer(pool, queue_depth=16) as server:
            yield server.url, pool, server


def test_served_connections_disable_nagle(served, monkeypatch):
    url, _, _ = served
    options = []
    setup = _Handler.setup

    def recording_setup(handler):
        setup(handler)
        options.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(_Handler, "setup", recording_setup)
    with urllib.request.urlopen(url + "/health", timeout=30) as response:
        assert response.status == 200
    assert options and all(options)


def assert_tables_identical(a, b) -> None:
    assert a.schema.names == b.schema.names
    assert a.n_rows == b.n_rows
    for name in a.schema.names:
        assert np.array_equal(a.column(name), b.column(name)), name


def raw_post(url: str, body: bytes, timeout: float = 30.0):
    """POST raw bytes to /sample; return (status, headers, parsed body)."""
    request = urllib.request.Request(url + "/sample", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read() or b"{}")


def assert_columns_bit_identical(a, b) -> None:
    """Same names, dtypes and values; float columns compared bit for bit."""
    assert a.schema == b.schema
    for name in a.schema.names:
        left, right = a.column(name), b.column(name)
        assert left.dtype == right.dtype, name
        if left.dtype == np.float64:
            assert left.view(np.int64).tolist() == right.view(np.int64).tolist(), name
        else:
            assert left.tolist() == right.tolist(), name
            assert [type(v) for v in left] == [type(v) for v in right], name


EDGE_FLOATS = [np.nan, -0.0, 5e-324, 1.7976931348623157e308, 1e-5, 1e16]


def edge_table() -> Table:
    """Awkward floats next to int, str and tuple categories."""
    schema = TableSchema(
        [
            ColumnSpec("x", "continuous"),
            ColumnSpec("port", "categorical", categories=(22, 80, 443)),
            ColumnSpec("proto", "categorical", categories=("tcp", "udp")),
            ColumnSpec("pair", "categorical", categories=((1, "a"), (2, "b"))),
        ]
    )
    pairs = np.empty(6, dtype=object)
    pairs[:] = [(1, "a"), (2, "b")] * 3
    return Table(
        schema,
        {
            "x": np.array(EDGE_FLOATS),
            "port": np.array([22, 80, 443, 22, 80, 443], dtype=object),
            "proto": np.array(["tcp", "udp"] * 3, dtype=object),
            "pair": pairs,
        },
    )


def wire_round_trip(table: Table, dumps=_dumps, loads=json.loads) -> Table:
    return table_from_wire(loads(dumps(table_to_wire(table))))


class TestWireFormat:
    def test_table_round_trips_bit_identically(self, fitted_kinetgan):
        table = fitted_kinetgan.sample(64, rng=sampling_rng(3))
        rebuilt = wire_round_trip(table)
        assert_tables_identical(table, rebuilt)
        for name in table.schema.names:
            assert rebuilt.column(name).dtype == table.column(name).dtype

    @pytest.mark.parametrize(
        "dumps, loads",
        [(_dumps, json.loads), (_dumps, orjson.loads), (json.dumps, json.loads)],
        ids=["server-to-json", "server-to-orjson", "stdlib-to-json"],
    )
    def test_edge_values_round_trip_bit_identically(self, dumps, loads):
        """The document also stays writable by any JSON encoder."""
        table = edge_table()
        assert_columns_bit_identical(table, wire_round_trip(table, dumps, loads))

    def test_nan_goes_out_as_null(self):
        body = _dumps(table_to_wire(edge_table()))
        assert json.loads(body)["columns"]["x"][0] is None
        assert b"NaN" not in body

    def test_non_contiguous_continuous_column(self):
        schema = TableSchema([ColumnSpec("x", "continuous")])
        strided = np.array(EDGE_FLOATS * 2)[::2]
        table = Table(schema, {"x": strided})
        assert not table.column("x").flags.c_contiguous
        assert_columns_bit_identical(table, wire_round_trip(table))

    def test_zero_row_table(self):
        table = edge_table().select_rows([])
        rebuilt = wire_round_trip(table)
        assert rebuilt.n_rows == 0
        assert_columns_bit_identical(table, rebuilt)

    def test_stdlib_client_rebuilds_response(self, served, fitted_kinetgan):
        """A client on stdlib ``json`` reads the same rows as request_samples."""
        url, _pool, _server = served
        body = json.dumps({"artifact": "kinetgan", "n": 200, "seed": 5}).encode()
        status, headers, document = raw_post(url, body)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert_columns_bit_identical(
            fitted_kinetgan.sample(200, rng=sampling_rng(5)), table_from_wire(document)
        )

    def test_other_documents_parse_to_the_same_values(self, served):
        """/health, /artifacts and /metrics?format=json read back exactly as
        the stdlib encoder wrote them."""
        url, pool, server = served
        request_samples(url, "kinetgan", 8, seed=0)
        artifacts = {"artifacts": pool.manifests}
        for document in (server.health(), artifacts, server.metrics_snapshot()):
            assert json.loads(_dumps(document)) == json.loads(json.dumps(document))
        assert fetch_json(url, "/artifacts") == json.loads(json.dumps(artifacts))
        assert set(fetch_json(url, "/health")) == set(server.health())
        assert "repro_http_requests_total" in fetch_json(url, "/metrics?format=json")


class TestHTTPParity:
    def test_seeded_samples_bit_identical_to_in_process(self, served, fitted_kinetgan):
        url, _pool, _server = served
        over_http = request_samples(url, "kinetgan", 120, seed=42)
        in_process = fitted_kinetgan.sample(120, rng=sampling_rng(42))
        assert_tables_identical(in_process, over_http)

    def test_conditional_request_parity(self, served, fitted_kinetgan):
        url, _pool, _server = served
        value = fitted_kinetgan.sampler.categories("event_type")[0]
        over_http = request_samples(
            url, "kinetgan", 48, conditions={"event_type": value}, seed=7
        )
        in_process = fitted_kinetgan.sample(
            48, conditions={"event_type": value}, rng=sampling_rng(7)
        )
        assert_tables_identical(in_process, over_http)

    def test_default_seed_matches_model_default(self, served, fitted_kinetgan):
        url, _pool, _server = served
        assert_tables_identical(fitted_kinetgan.sample(40), request_samples(url, "kinetgan", 40))

    def test_full_artifact_path_also_addresses_model(self, served, kinetgan_artifact):
        url, _pool, _server = served
        by_alias = request_samples(url, "kinetgan", 16, seed=1)
        by_path = request_samples(url, str(kinetgan_artifact), 16, seed=1)
        assert_tables_identical(by_alias, by_path)

    def test_repeated_request_is_deterministic(self, served):
        url, _pool, _server = served
        assert_tables_identical(
            request_samples(url, "kinetgan", 32, seed=9),
            request_samples(url, "kinetgan", 32, seed=9),
        )


class TestEndpoints:
    def test_health_document(self, served):
        url, _pool, server = served
        health = fetch_json(url, "/health")
        assert health["status"] == "ok"
        assert health["queue_capacity"] == server.queue_depth
        assert health["artifacts"] == ["kinetgan"]
        assert set(health["stats"]) >= {"served", "rejected", "timeouts"}

    def test_artifacts_document_carries_manifests(self, served):
        url, _pool, _server = served
        artifacts = fetch_json(url, "/artifacts")["artifacts"]
        assert artifacts["kinetgan"]["model_class"] == "KiNETGAN"
        assert artifacts["kinetgan"]["format_version"] == 2

    def test_unknown_route_404(self, served):
        url, _pool, _server = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch_json(url, "/nope")
        assert excinfo.value.code == 404


class TestRequestValidation:
    def test_unknown_artifact_404(self, served):
        url, _pool, _server = served
        status, _headers, body = raw_post(
            url, json.dumps({"artifact": "missing", "n": 10}).encode()
        )
        assert status == 404
        assert "missing" in body["error"]

    def test_malformed_json_body_400(self, served):
        url, _pool, _server = served
        status, _headers, body = raw_post(url, b"this is not json")
        assert status == 400
        assert "malformed" in body["error"]

    def test_non_utf8_body_400(self, served):
        url, _pool, _server = served
        status, _headers, body = raw_post(url, b'{"artifact": "\xff"}')
        assert status == 400
        assert "malformed" in body["error"]

    def test_empty_body_400(self, served):
        url, _pool, _server = served
        status, _headers, _body = raw_post(url, b"")
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"artifact": "kinetgan"},
            {"artifact": "kinetgan", "n": 0},
            {"artifact": "kinetgan", "n": -5},
            {"artifact": "kinetgan", "n": "ten"},
            {"artifact": "kinetgan", "n": True},
            {"n": 10},
            {"artifact": "kinetgan", "n": 10, "conditions": "bad"},
            {"artifact": "kinetgan", "n": 10, "seed": "abc"},
        ],
    )
    def test_invalid_fields_400(self, served, payload):
        url, _pool, _server = served
        status, _headers, _body = raw_post(url, json.dumps(payload).encode())
        assert status == 400

    def test_oversized_n_400(self, served):
        url, _pool, server = served
        status, _headers, body = raw_post(
            url, json.dumps({"artifact": "kinetgan", "n": server.max_rows + 1}).encode()
        )
        assert status == 400
        assert "max_rows" in body["error"]

    def test_bad_conditions_answer_400(self, served):
        """A sampling-time error (unknown condition column) maps to 400."""
        url, _pool, _server = served
        status, _headers, body = raw_post(
            url,
            json.dumps(
                {"artifact": "kinetgan", "n": 8, "conditions": {"no_such_column": "x"}}
            ).encode(),
        )
        assert status == 400
        assert "sampling failed" in body["error"]


class TestBackpressure:
    def test_queue_full_429_with_retry_after(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            in_dispatch = threading.Event()
            release = threading.Event()
            real = pool.sample_batch

            def gated(requests, timeout=None):
                in_dispatch.set()
                assert release.wait(20.0)
                return real(requests, timeout)

            pool.sample_batch = gated  # type: ignore[method-assign]
            with SamplingHTTPServer(pool, queue_depth=2, retry_after=2.5) as server:
                url = server.url
                results: list = []

                def client():
                    results.append(raw_post(url, json.dumps(
                        {"artifact": "kinetgan", "n": 8, "seed": 1}).encode()))

                # First request occupies the dispatcher ...
                threads = [threading.Thread(target=client)]
                threads[0].start()
                assert in_dispatch.wait(20.0)
                # ... the next two fill the bounded queue ...
                for _ in range(2):
                    thread = threading.Thread(target=client)
                    thread.start()
                    threads.append(thread)
                deadline = time.monotonic() + 10.0
                while server._queue.qsize() < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert server._queue.qsize() == 2
                # ... and the fourth is rejected with backpressure.
                status, headers, body = raw_post(
                    url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
                )
                assert status == 429
                assert headers.get("Retry-After") == "2.5"
                assert "queue full" in body["error"]
                assert server.stats.snapshot()["rejected"] == 1
                release.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert [status for status, _h, _b in results] == [200, 200, 200]

    def test_queue_wait_past_deadline_504(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            first = threading.Event()

            real = pool.sample_batch

            def slow_once(requests, timeout=None):
                if not first.is_set():
                    first.set()
                    time.sleep(0.3)
                return real(requests, timeout)

            pool.sample_batch = slow_once  # type: ignore[method-assign]
            with SamplingHTTPServer(pool, queue_depth=8, request_deadline=0.05) as server:
                url = server.url
                results: list = []

                def client():
                    results.append(raw_post(url, json.dumps(
                        {"artifact": "kinetgan", "n": 8, "seed": 1}).encode()))

                blocker = threading.Thread(target=client)
                blocker.start()
                assert first.wait(10.0)
                # Queued while the dispatcher sleeps past the deadline.
                status, _headers, body = raw_post(
                    url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
                )
                assert status == 504
                assert "deadline" in body["error"]
                blocker.join(timeout=30.0)


class TestDrain:
    def test_drain_serves_admitted_then_503s_new(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            in_dispatch = threading.Event()
            release = threading.Event()
            real = pool.sample_batch

            def gated(requests, timeout=None):
                in_dispatch.set()
                assert release.wait(20.0)
                return real(requests, timeout)

            pool.sample_batch = gated  # type: ignore[method-assign]
            server = SamplingHTTPServer(pool, queue_depth=8).start()
            url = server.url
            results: list = []

            def client():
                results.append(raw_post(url, json.dumps(
                    {"artifact": "kinetgan", "n": 8, "seed": 2}).encode()))

            admitted = [threading.Thread(target=client) for _ in range(2)]
            admitted[0].start()
            assert in_dispatch.wait(20.0)
            admitted[1].start()
            deadline = time.monotonic() + 10.0
            while server._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.005)

            stopper = threading.Thread(target=server.stop)
            stopper.start()
            deadline = time.monotonic() + 10.0
            while not server._draining.is_set() and time.monotonic() < deadline:
                time.sleep(0.005)
            # New work is refused the moment drain begins ...
            status, _headers, body = raw_post(
                url, json.dumps({"artifact": "kinetgan", "n": 8}).encode()
            )
            assert status == 503
            assert "draining" in body["error"]
            # ... while everything already admitted is still served.
            release.set()
            for thread in admitted:
                thread.join(timeout=30.0)
            stopper.join(timeout=30.0)
            assert [status for status, _h, _b in results] == [200, 200]


class TestServingPool:
    def test_requires_artifacts(self):
        with pytest.raises(ValueError, match="at least one artifact"):
            ServingPool({})

    def test_unknown_artifact_raises_keyerror(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}) as pool:
            with pytest.raises(KeyError):
                pool.sample_batch([("missing", 8, None, 1)])

    def test_closed_pool_rejects_requests(self, kinetgan_artifact):
        pool = ServingPool({"kinetgan": kinetgan_artifact})
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.sample_batch([("kinetgan", 8, None, 1)])

    def test_process_pool_parity(self, kinetgan_artifact, fitted_kinetgan):
        """Workers resolve one shared-memory copy; rows stay bit-identical."""
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="process:2") as pool:
            results = pool.sample_batch(
                [("kinetgan", 60, None, 11), ("kinetgan", 60, None, 12)]
            )
        assert all(result.failure is None for result in results)
        assert_tables_identical(
            fitted_kinetgan.sample(60, rng=sampling_rng(11)), results[0].value
        )
        assert_tables_identical(
            fitted_kinetgan.sample(60, rng=sampling_rng(12)), results[1].value
        )

    def test_timeout_surfaces_as_task_failure(self, kinetgan_artifact):
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="serial") as pool:
            results = pool.sample_batch([("kinetgan", 5000, None, 1)], timeout=1e-9)
        assert results[0].failure is not None
        assert results[0].failure.cause == "timeout"

    def test_resident_models_have_workspaces_unbound(self, kinetgan_artifact):
        """Installed models carry no step workspace: the recycled scratch
        buffers are single-stream, and thread-pool workers sample the same
        resident object concurrently."""
        from repro.neural.network import Sequential

        with ServingPool({"kinetgan": kinetgan_artifact}, executor="thread:2") as pool:
            model = pool._refs["kinetgan"].resolve()
            stack, seen, networks = [model], set(), 0
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if isinstance(node, Sequential):
                    networks += 1
                    assert node.workspace is None
                    assert all(layer._ws is None for layer in node.layers)
                    for layer in node.layers:
                        # Output-activation scratch follows the same
                        # single-stream contract; unbound means disabled.
                        if hasattr(layer, "_scratch"):
                            assert layer._scratch is None
                    continue
                if isinstance(node, dict):
                    stack.extend(node.values())
                elif isinstance(node, (list, tuple)):
                    stack.extend(node)
                elif isinstance(getattr(node, "__dict__", None), dict):
                    stack.extend(vars(node).values())
        assert networks >= 2  # generator + discriminator at minimum

    def test_concurrent_thread_sampling_stays_bit_identical(
        self, kinetgan_artifact, fitted_kinetgan
    ):
        """A burst through two worker threads matches serial references.

        This is the regression test for shared step-workspace scratch: with
        a workspace still bound, two concurrent forwards through the same
        resident generator overwrite each other's buffers and the rows
        diverge (or sampling raises outright)."""
        requests = [("kinetgan", 48, None, 100 + i) for i in range(12)]
        with ServingPool({"kinetgan": kinetgan_artifact}, executor="thread:2") as pool:
            results = pool.sample_batch(requests)
        assert all(result.failure is None for result in results)
        for (_, n, _, seed), result in zip(requests, results):
            assert_tables_identical(
                fitted_kinetgan.sample(n, rng=sampling_rng(seed)), result.value
            )
