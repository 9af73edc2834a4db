"""Workload ``serve``: ``repro serve --http`` over a saved lab_iot artifact.

The server runs in its own process with a pool of at most ``nproc``
threads; the load comes from this process over keep-alive connections,
in two phases:

* **A, small requests**: over ``nproc`` connections, an open loop of
  64-row requests arriving as independent users would (seeded exponential
  gaps) at fixed mean rates.  Each request is timed from when it was due,
  and the generator's lateness is recorded.  The reference rate gives
  ``http_p50_ms`` and ``http_p90_ms``; the ladder above it gives
  ``http_max_rps``.
* **B, bulk requests**: a closed loop of 8192-row requests from one caller.

Chosen because one layer is used two ways: phase A is bound by the wire
and the socket (sampling 64 rows in-process takes about 2 ms), so a socket
fix shows there and not in B; phase B is bound by the model, decoding and
JSON encoding, so a wire-format or decode change shows mostly there.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import common, layers, stats, tracing

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = "lab_iot"
#: Training rows and epochs of the served artifact (input preparation).
ARTIFACT_ROWS = 1500
ARTIFACT_EPOCHS = 15
#: Server launches per run; ``setup_s`` is their median.
SETUPS = 5
SMALL_ROWS = 64
BULK_ROWS = 8192
#: Offered rates of phase A; the first is the reference rate.
RATES = (20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
#: p90 latency limit, counted from each request's due time.
LIMIT_S = 0.100
#: Requests per rate: a p90 needs ten samples beyond it.
RUNG_REQUESTS = 110
#: Share of ``--seconds`` spent at the reference rate and in phase B.
REF_SHARE = 0.2
BULK_SHARE = 0.6
MIN_BULK = 20
#: Phase B is one caller waiting for each reply: with more, the client's
#: JSON decoding and the server's sampling fight over the same two cores
#: and the bulk figures swing with whatever else the host runs.
BULK_CONNECTIONS = 1
#: Responses compared bit for bit with in-process sampling, per phase.
CHECKED_A = 3
CHECKED_B = 2
LAUNCH_TIMEOUT_S = 60.0


def _workers() -> int:
    return len(os.sched_getaffinity(0))


def _artifact(seed: int, out_dir: Path):
    """Fit and save the served model; returns ``(path, bundle)``.

    The rows come from the loader's default seed; ``seed`` seeds the model.
    """
    from repro.core import KiNETGAN, KiNETGANConfig
    from repro.datasets import load_lab_iot
    from repro.serve import save_model

    bundle = load_lab_iot(n_records=ARTIFACT_ROWS)
    config = KiNETGANConfig(
        embedding_dim=32,
        generator_dims=(64, 64),
        discriminator_dims=(64, 64),
        epochs=ARTIFACT_EPOCHS,
        batch_size=128,
        seed=seed,
        dtype="float64",
    )
    model = KiNETGAN(config).fit(
        bundle.table, catalog=bundle.catalog, condition_columns=bundle.condition_columns
    )
    path = out_dir / ARTIFACT
    save_model(model, path)
    return path, bundle


# --------------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------------- #
@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int

    def stop(self) -> None:
        """SIGINT drains and exits the server; wait until it has."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def _launch(artifact: Path, trace_out: Path | None = None) -> Server:
    command = [sys.executable, "-u", "-m", "perfbench.serve_launcher"]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["serve", "--http", "--artifact", str(artifact), "--port", "0"]
    command += ["--workers", f"thread:{_workers()}"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + LAUNCH_TIMEOUT_S
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.5)
        if ready:
            line = process.stdout.readline()
            if not line:
                break
            match = re.search(r" on http://([^:\s]+):(\d+)", line)
            if match:
                return Server(process, match.group(1), int(match.group(2)))
        elif process.poll() is not None:
            break
    Server(process, "", 0).stop()
    raise RuntimeError(f"server did not start: {' '.join(command)}")


def _ready_server(artifact: Path, trace_out: Path | None = None) -> Server:
    """Launch, then one small request: set-up ends at the first answer."""
    server = _launch(artifact, trace_out)
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        status, _ = _post(conn, SMALL_ROWS, seed=0)
    finally:
        conn.close()
    if status != 200:
        server.stop()
        raise RuntimeError(f"server answered {status} to its first request")
    return server


def _post(conn: http.client.HTTPConnection, n: int, seed: int) -> tuple[int, bytes]:
    body = json.dumps({"artifact": ARTIFACT, "n": n, "seed": seed})
    conn.request("POST", "/sample", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _scrape(server: Server) -> dict:
    """``/health`` stats and the server's own /sample latency histogram totals."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/health")
        health = json.loads(conn.getresponse().read())
        conn.request("GET", "/metrics?format=json")
        metrics = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    count = total = 0.0
    for sample in metrics.get("repro_http_request_seconds", {}).get("samples", []):
        if sample["labels"].get("endpoint") == "/sample":
            count += sample["count"]
            total += sample["sum"]
    return {"stats": health["stats"], "count": count, "sum": total}


# --------------------------------------------------------------------------- #
# The load generator
# --------------------------------------------------------------------------- #
@dataclass
class Reply:
    """One request as the client saw it (seconds on ``time.perf_counter``)."""

    seed: int
    n: int
    sent: stats.Sent
    ttfb: float = 0.0
    read: float = 0.0
    ok: bool = False
    table: object = None


@dataclass
class Load:
    """Shared state of one phase's client threads."""

    server: Server
    schema: object
    tracer: tracing.Tracer | None
    keep: set[int] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def send(self, conn, reply: Reply) -> http.client.HTTPConnection:
        """Send one request; returns the connection to use next."""
        from repro.serve.server import table_from_wire

        reply.sent.start = time.perf_counter()
        try:
            with self.span("bench.request", seed=reply.seed):
                with self.span("serve.socket"):
                    body = json.dumps({"artifact": ARTIFACT, "n": reply.n, "seed": reply.seed})
                    conn.request(
                        "POST", "/sample", body=body, headers={"Content-Type": "application/json"}
                    )
                    response = conn.getresponse()
                    headers_at = time.perf_counter()
                    data = response.read()
                    read_at = time.perf_counter()
                with self.span("serve.wire.decode"):
                    table = table_from_wire(json.loads(data)) if response.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            return http.client.HTTPConnection(self.server.host, self.server.port, timeout=30)
        reply.sent.end = time.perf_counter()
        reply.ttfb = headers_at - reply.sent.start
        reply.read = read_at - headers_at
        reply.ok = table is not None and common.table_ok(table, reply.n, self.schema)
        if reply.ok and reply.seed in self.keep:
            reply.table = table
        return conn

    def run(self, worker, connections: int) -> None:
        """``worker(conn)`` on ``connections`` threads, one connection each."""

        errors: list[BaseException] = []

        def body():
            conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=30)
            try:
                worker(conn)
            except BaseException as error:  # re-raised in the calling thread
                errors.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=body) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


def open_loop(load: Load, dues: list[float], seeds: list[int]) -> list[Reply]:
    """Send ``seeds`` at offsets ``dues``, each timed from its due time."""
    replies: list[Reply] = []
    cursor = iter(range(len(seeds)))
    origin = time.perf_counter() + 0.05

    def worker(conn):
        while True:
            with load.lock:
                index = next(cursor, None)
            if index is None:
                return
            due = origin + dues[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            reply = Reply(seeds[index], SMALL_ROWS, stats.Sent(due, due, None))
            conn = load.send(conn, reply)
            with load.lock:
                replies.append(reply)

    load.run(worker, _workers())
    return sorted(replies, key=lambda r: r.sent.due)


def closed_loop(load: Load, seconds: float, first_seed: int) -> tuple[list[Reply], float]:
    """Bulk requests back to back on every connection; ``(replies, wall s)``."""
    replies: list[Reply] = []
    seeds = iter(range(first_seed, first_seed + 1_000_000))
    started = time.perf_counter()

    def worker(conn):
        while True:
            with load.lock:
                if len(replies) >= MIN_BULK and time.perf_counter() - started >= seconds:
                    return
                reply = Reply(next(seeds), BULK_ROWS, stats.Sent(0.0, 0.0, None))
                replies.append(reply)
            reply.sent.due = time.perf_counter()
            conn = load.send(conn, reply)

    load.run(worker, BULK_CONNECTIONS)
    return sorted(replies, key=lambda r: r.seed), time.perf_counter() - started


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def _phase_a(load: Load, seed: int, ref_requests: int, ladder: bool) -> dict:
    """The reference rate, then (with ``ladder``) higher rates until one fails."""
    import numpy as np

    def arrivals(rung: int, rate: float, count: int) -> list[float]:
        return stats.poisson_due_times(rate, count, np.random.default_rng([seed, rung]))

    base = seed * 1_000_000 + 1
    load.keep |= set(range(base, base + CHECKED_A))
    seeds = list(range(base, base + ref_requests))
    ref = open_loop(load, arrivals(0, RATES[0], ref_requests), seeds)
    best = RATES[0] if stats.meets_limit([_sent(r) for r in ref], LIMIT_S) else 0.0
    rungs = {RATES[0]: ref}
    next_seed = base + ref_requests
    for rung, rate in enumerate(RATES[1:] if ladder and best else (), start=1):
        seeds = list(range(next_seed, next_seed + RUNG_REQUESTS))
        replies = open_loop(load, arrivals(rung, rate, RUNG_REQUESTS), seeds)
        next_seed += RUNG_REQUESTS
        rungs[rate] = replies
        if not stats.meets_limit([_sent(r) for r in replies], LIMIT_S):
            break
        best = rate
    return {"ref": ref, "rungs": rungs, "max_rps": best, "next_seed": next_seed}


def _sent(reply: Reply) -> stats.Sent:
    """The reply's timing, with a failed or wrong reply counted as never done."""
    return reply.sent if reply.ok else stats.Sent(reply.sent.due, reply.sent.start, None)


def _pass(server: Server, bundle, seed: int, seconds: float, tally, tracer, ladder: bool) -> dict:
    load = Load(server, bundle.schema, tracer)
    ref_requests = max(RUNG_REQUESTS, int(RATES[0] * REF_SHARE * seconds))
    before = _scrape(server)
    phase_a = _phase_a(load, seed, ref_requests, ladder)
    after_a = _scrape(server)
    first_bulk = phase_a["next_seed"]
    load.keep |= set(range(first_bulk, first_bulk + CHECKED_B))
    bulk, bulk_wall = closed_loop(load, BULK_SHARE * seconds, first_bulk)
    after_b = _scrape(server)
    for rung in phase_a["rungs"].values():
        for reply in rung:
            tally.record(reply.ok, f"small request seed {reply.seed} failed or wrong shape")
    for reply in bulk:
        tally.record(reply.ok, f"bulk request seed {reply.seed} failed or wrong shape")
    return {
        **phase_a,
        "bulk": bulk,
        "bulk_wall": bulk_wall,
        "scrapes": (before, after_a, after_b),
    }


def _check_bits(artifact: Path, replies: list[Reply], tally: stats.Tally) -> list:
    """Kept responses must equal in-process sampling with the same seed."""
    from repro.engine import sampling_rng
    from repro.serve import load_model

    model = load_model(artifact)
    kept = [r for r in replies if r.table is not None]
    for reply in kept:
        expected = model.sample(reply.n, rng=sampling_rng(reply.seed))
        tally.record(
            common.tables_equal(reply.table, expected), f"seed {reply.seed}: not bit-identical"
        )
    tally.record(len(kept) == CHECKED_A + CHECKED_B, f"{len(kept)} responses kept for checking")
    return kept


def _reasoner(bundle):
    from repro.knowledge.builder import build_network_kg
    from repro.knowledge.reasoner import KGReasoner

    return KGReasoner(build_network_kg(bundle.catalog), field_map=bundle.catalog.field_map)


def measure(seed: int, seconds: float, out_dir: Path) -> common.Outcome:
    tally = stats.Tally()
    start = time.perf_counter()
    artifact, bundle = _artifact(seed, out_dir)
    artifact_s = time.perf_counter() - start
    server, setup_s, setups = common.timed_setups(
        lambda: _ready_server(artifact), Server.stop, SETUPS
    )
    try:
        result = _pass(server, bundle, seed, seconds, tally, None, ladder=True)
    finally:
        server.stop()
    replies = result["ref"] + result["bulk"]
    kept = _check_bits(artifact, replies, tally)
    bulk_tables = [r.table for r in kept if r.n == BULK_ROWS]
    reasoner = _reasoner(bundle)
    validities = [common.kg_validity(reasoner, table) for table in bulk_tables]
    validity = stats.median(validities) if validities else 0.0

    latencies_ms = [_sent(r).latency * 1000.0 for r in result["ref"]]
    summary = stats.summarize(latencies_ms)
    bulk_ok = [r for r in result["bulk"] if r.ok]
    bulk_rows_per_s = BULK_ROWS * len(bulk_ok) / result["bulk_wall"]
    bulk_latencies_ms = [_sent(r).latency * 1000.0 for r in result["bulk"]]
    bulk_ms = stats.summarize(bulk_latencies_ms)
    out = common.Outcome(tally)
    out.gate = {
        "setup_s": (setup_s, "s"),
        "ok_share": (tally.ok_share, "share"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
        "kg_validity": (validity, "share"),
        "op_ms": (stats.trimmed_mean(bulk_latencies_ms), "ms"),
        "rows_per_s": (bulk_rows_per_s, "rows/s"),
    }
    out.name("setup_s", setup_s, "s", n=len(setups), artifact_fit_s=artifact_s)
    reference = {"n": summary["n"], "rate_rps": RATES[0], "rows": SMALL_ROWS}
    out.name("http_p50_ms", summary["p50"], "ms", **reference)
    out.name("http_p90_ms", stats.percentile(latencies_ms, 90.0), "ms", **reference)
    out.name(
        "http_lateness_p50_ms",
        stats.median([r.sent.lateness * 1000.0 for r in result["ref"]]),
        "ms",
        n=summary["n"],
    )
    out.name(
        "http_max_rps",
        result["max_rps"],
        "1/s",
        limit_ms=LIMIT_S * 1000.0,
        rates_tried=list(result["rungs"]),
    )
    out.name("bulk_rows_per_s", bulk_rows_per_s, "rows/s", n=len(bulk_ok), rows=BULK_ROWS)
    out.name("bulk_ms_p50", bulk_ms["p50"], "ms", n=bulk_ms["n"], rows=BULK_ROWS)
    out.name(
        "bulk_ms_trimmed_mean", out.gate["op_ms"][0], "ms", n=bulk_ms["n"], trim=stats.TRIM
    )
    out.name("kg_validity", validity, "share", n=BULK_ROWS * len(bulk_tables))
    return out


def trace(seed: int, seconds: float, out_dir: Path) -> common.Outcome:
    """Reference rate and bulk phase untraced, then against a traced server."""
    tally = stats.Tally()
    artifact, bundle = _artifact(seed, out_dir)
    server = _ready_server(artifact)
    try:
        plain = _pass(server, bundle, seed, seconds / 2, tally, None, ladder=False)
    finally:
        server.stop()

    tracer = tracing.Tracer()
    server_spans_file = out_dir / "server-spans.json"
    server = _ready_server(artifact, trace_out=server_spans_file)
    try:
        traced = _pass(server, bundle, seed, seconds / 2, tally, tracer, ladder=False)
        health = _scrape(server)["stats"]
    finally:
        server.stop()
    _check_bits(artifact, traced["ref"] + traced["bulk"], tally)

    server_spans = json.loads(server_spans_file.read_text())
    spans = tracer.spans + server_spans
    link_server_spans(spans)
    out = common.Outcome(tally, spans=spans)
    out.layers = layers.span_metrics(spans)
    ref = [r for r in traced["ref"] if r.ok]
    lateness_ms = [r.sent.lateness * 1e3 for r in traced["ref"]]
    out.layers["serve.client.lateness_ms"] = stats.median(lateness_ms)
    out.layers["serve.client.ttfb_ms"] = stats.median([r.ttfb * 1e3 for r in ref]) if ref else 0.0
    out.layers["serve.client.read_ms"] = stats.median([r.read * 1e3 for r in ref]) if ref else 0.0
    batches = [
        s["attrs"]["requests"] for s in server_spans if s["name"] == "serve.pool.sample_batch"
    ]
    out.layers["serve.pool.batch_requests"] = stats.median(batches) if batches else 0.0
    before, after_a, after_b = traced["scrapes"]
    for phase, start, end in (("phase_a", before, after_a), ("phase_b", after_a, after_b)):
        count = end["count"] - start["count"]
        mean_ms = (end["sum"] - start["sum"]) / count * 1000.0 if count else 0.0
        out.layers[f"serve.server.request_ms.{phase}"] = mean_ms
    for name in ("served", "rejected", "timeouts"):
        out.layers[f"serve.health.{name}"] = health[name]
    plain_ms = stats.median([_sent(r).latency * 1e3 for r in plain["ref"]])
    overhead_ms = stats.median([_sent(r).latency * 1e3 for r in traced["ref"]]) - plain_ms
    out.layers["trace.overhead_ms"] = overhead_ms
    out.layers["trace.overhead_share"] = overhead_ms / plain_ms
    return out


def link_server_spans(spans: list[dict]) -> None:
    """Join the server's spans to the client request that caused them, by seed.

    Each ``serve.handler`` becomes a child of its request's ``serve.socket``
    span, so the socket's self time is the request's wait minus the
    handler; each ``serve.model.sample`` (run on a pool thread) becomes a
    child of its request's ``serve.await_result``.
    """
    by_id = {s["span_id"]: s for s in spans}
    socket_by_seed = {}
    for span in spans:
        if span["name"] == "serve.socket" and span["parent_id"] in by_id:
            socket_by_seed[by_id[span["parent_id"]]["attrs"].get("seed")] = span
    await_by_seed = {s["attrs"].get("seed"): s for s in spans if s["name"] == "serve.await_result"}
    for span in spans:
        seed = span["attrs"].get("seed")
        if span["name"] == "serve.admit" and seed in socket_by_seed:
            handler = by_id.get(span["parent_id"])
            if handler is not None and handler["name"] == "serve.handler":
                handler["parent_id"] = socket_by_seed[seed]["span_id"]
        elif span["name"] == "serve.model.sample" and seed in await_by_seed:
            span["parent_id"] = await_by_seed[seed]["span_id"]
    roots = tracing.roots_of(spans)
    for span in spans:
        span["trace_id"] = roots[span["span_id"]]["trace_id"]
