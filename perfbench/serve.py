"""serve-mix: two closed loops of ``POST /run`` requests against ``repro serve``.

The server runs as a child process (started through perfbench.serve_child)
with a fresh cache directory.  The client is this process with two
keep-alive connections, each sending its next request only after the
previous reply, as callers that block on ``ServeClient`` do.

The seeded requests cover a few bounded-arboricity graphs on the kernel
engine.  One connection repeats requests primed during set-up (cache reads);
the other sends new seeds (an execution plus a cache write each).  So the
executor is busy nearly all the time and almost every cache read contends
with an execution -- the hit latency has one mode, not a mix of two that
shifts between runs -- and a repeat never meets its original in flight.
"""

from __future__ import annotations

import base64
import http.client
import itertools
import json
import os
import pickle
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.common import (
    ROOT,
    SETUP_REPS,
    WORK,
    Clock,
    GraphCheck,
    Report,
    combined_digest,
    load_pinned,
    result_digest,
    sha256_hex,
    vmhwm_mib,
)

SIZES = {
    "full": {"n": 1000, "graphs": 4, "prime": 5},
    "tiny": {"n": 150, "graphs": 2, "prime": 2},
}
#: The new-seed caller's pause after each reply.  It keeps the executor busy
#: about a fifth of the time, so the typical cache read runs beside an idle
#: executor and the ones that contend with an execution form the tail.
THINK_S = 0.08
HOST = "127.0.0.1"
#: The first new-seed requests of the timed phase whose digests and counts
#: join the pinned determinism window.
WINDOW = 10

Key = Tuple[int, int]  # (graph index, run seed)


def wire_spec(n: int, graph_seed: int, seed: int) -> Dict:
    return {
        "graph": {
            "kind": "family",
            "family": "bounded-arboricity",
            "params": {"n": n, "alpha": 2},
            "weights": {"kind": "scheme", "scheme": "random"},
        },
        "graph_seed": graph_seed,
        "algorithm": "weighted",
        "engine": "kernel",
        "seed": seed,
    }


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, name: str, spans: Optional[str]):
        self.cache_dir = WORK / f"{name}-cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        command = [sys.executable, "-m", "perfbench.serve_child"]
        if spans is not None:
            command += ["--spans", spans]
        command += ["--", "--port", "0", "--cache-dir", str(self.cache_dir), "--engine", "kernel"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log = open(WORK / f"{name}.log", "w")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        try:
            self.port = self._await_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        marker = "repro-serve listening on http://"
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=1.0):
                    continue
                line = self.process.stdout.readline()
                if not line:
                    break
                if line.startswith(marker):
                    return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError(f"server did not start; see {self.log.name}")

    def get_json(self, path: str) -> Dict:
        connection = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def peak_rss_mib(self) -> float:
        return vmhwm_mib(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None and getattr(self, "port", None):
            connection = http.client.HTTPConnection(HOST, self.port, timeout=30)
            try:
                connection.request("POST", "/shutdown", body=b"")
                connection.getresponse().read()
            except OSError:
                pass
            finally:
                connection.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


@dataclass
class Reply:
    key: Key
    latency_s: float = 0.0
    size: int = 0
    cache: str = ""  # the envelope's class: hit, miss or inflight
    wall_s: float = 0.0  # the envelope's wall_time_s
    problems: List[str] = field(default_factory=list)
    raw: bytes = b""  # the body, kept until a deferred check


class Client:
    """Sends requests and checks every reply against the graphs it built itself."""

    def __init__(self, n: int, graph_seeds: List[int]):
        from repro.run import RunSpec

        self.n = n
        self.graph_seeds = graph_seeds
        self.checks = []
        for graph_seed in graph_seeds:
            spec = RunSpec.from_dict(wire_spec(n, graph_seed, 0))
            self.checks.append(GraphCheck.from_networkx(spec.graph.build(graph_seed).graph))
        self.digests: Dict[Key, str] = {}  # result digests, across set-ups
        self.payloads: Dict[Key, str] = {}  # reply payload hashes, per server
        self.results: Dict[Key, Tuple[int, int, int]] = {}  # rounds, messages, bits

    def body(self, key: Key) -> bytes:
        graph, seed = key
        return json.dumps(wire_spec(self.n, self.graph_seeds[graph], seed)).encode()

    def send(self, connection: http.client.HTTPConnection, reply: Reply,
             defer: bool = False) -> None:
        """Send one request; ``defer`` keeps the body for :meth:`finish`."""
        body = self.body(reply.key)
        started = time.perf_counter()
        try:
            connection.request("POST", "/run", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            reply.problems.append(f"{type(error).__name__}: {error}")
            return
        reply.latency_s = time.perf_counter() - started
        reply.size = len(raw)
        if response.status != 200:
            reply.problems.append(f"status {response.status}")
        elif defer:
            reply.raw = raw
        else:
            self.finish(reply, raw)

    def finish(self, reply: Reply, raw: bytes) -> None:
        try:
            self.check(reply, json.loads(raw))
        except Exception as error:  # a malformed reply is a failed op
            reply.problems.append(f"{type(error).__name__}: {error}")
        reply.raw = b""

    def check(self, reply: Reply, payload: Dict) -> None:
        reply.cache = payload["metrics"]["cache"]
        reply.wall_s = payload["metrics"]["wall_time_s"]
        blob = payload["result_b64"]
        known = self.payloads.get(reply.key)
        if known is not None:
            # A repeat: the reply must carry the stored result, byte for byte.
            if sha256_hex(blob.encode()) != known:
                reply.problems.append("repeat differs from the first reply")
            return
        result = pickle.loads(base64.b64decode(blob))
        reply.problems.extend(self.checks[reply.key[0]].failures(result))
        digest = result_digest(result)
        if self.digests.setdefault(reply.key, digest) != digest:
            reply.problems.append("result digest differs between set-ups")
        self.payloads[reply.key] = sha256_hex(blob.encode())
        metrics = result.metrics
        self.results[reply.key] = (result.rounds, metrics.total_messages, metrics.total_bits)

    def stream(self, connection, keys: Iterator[Key], clock: Clock,
               think_s: float, defer: bool) -> List[Reply]:
        """Send ``keys`` one after another, pausing ``think_s`` after each
        reply, until the clock expires."""
        replies = []
        while not replies or not clock.expired():
            reply = Reply(next(keys))
            self.send(connection, reply, defer)
            replies.append(reply)
            time.sleep(think_s)
        return replies


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        report: Report, import_s: float) -> Dict[str, float]:
    del workload
    # Client and server share one CPU (the child inherits this affinity), so
    # a request costs a context switch on that CPU.  Across two CPUs every
    # request is a cross-CPU wake-up, whose cost on a virtual machine moves
    # by a third between runs and swamps the latencies measured here.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sizes = SIZES[size]
    # The graphs are the same for every seed (so every run does the same
    # amount of work per execution); the seed draws run seeds and the stream.
    graph_seeds = list(range(sizes["graphs"]))
    prime = [(g, seed * 1_000_000 + k) for k in range(sizes["prime"]) for g in graph_seeds]
    client = Client(sizes["n"], graph_seeds)
    tally = report.tally
    spans_path = str(WORK / "serve-spans.jsonl") if trace else None

    def send_all(server: Server, keys: List[Key], what: str) -> None:
        connection = http.client.HTTPConnection(HOST, server.port, timeout=120)
        try:
            for key in keys:
                reply = Reply(key)
                client.send(connection, reply)
                tally.record(reply.problems, f"{what} {key}")
        finally:
            connection.close()

    setup_times = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            started = time.perf_counter()
            server = Server(f"serve-{rep}", spans_path if last else None)
            client.payloads.clear()
            send_all(server, prime, "prime")  # the first request per graph interns it
            send_all(server, prime, "replay")  # every primed result once from the cache
            setup_times.append(time.perf_counter() - started)
            if not last:
                server.stop()
                server = None

        before = server.get_json("/stats")["stats"]
        hit_rng = random.Random(f"serve-mix:{seed}:repeats")
        new_rng = random.Random(f"serve-mix:{seed}:new")
        repeats = iter(lambda: hit_rng.choice(prime), None)
        fresh = ((new_rng.randrange(len(graph_seeds)), seed * 1_000_000 + k)
                 for k in itertools.count(sizes["prime"]))
        connections = [http.client.HTTPConnection(HOST, server.port, timeout=120)
                       for _ in range(2)]
        streams: Dict[str, List[Reply]] = {}

        def work(name: str, connection, keys: Iterator[Key], think_s: float,
                 defer: bool) -> None:
            streams[name] = client.stream(connection, keys, clock, think_s, defer)

        # The client's two threads share one interpreter lock: checking a new
        # result (decode, domination, digest) takes milliseconds, and would
        # stall the repeats thread and inflate its latencies, so new results
        # are checked after the timed phase.  Checking a repeat is one hash.
        clock = Clock(seconds)
        try:
            threads = [
                threading.Thread(target=work, args=("repeats", connections[0], repeats, 0.0, False)),
                threading.Thread(target=work, args=("new", connections[1], fresh, THINK_S, True)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for connection in connections:
                connection.close()
        wall = time.perf_counter() - clock.started
        after = server.get_json("/stats")["stats"]
        peak = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()

    for reply in streams["new"]:
        if reply.raw:
            client.finish(reply, reply.raw)
    replies = streams["repeats"] + streams["new"]
    for index, reply in enumerate(replies):
        tally.record(reply.problems, f"request {index} {reply.key}")
    hits = [r for r in replies if r.cache == "hit" and not r.problems]
    misses = [r for r in replies if r.cache == "miss" and not r.problems]
    inflight = sum(1 for r in replies if r.cache == "inflight")
    served = {"executions": len(misses), "cache_hits": len(hits), "inflight_joins": inflight}
    for name, seen in served.items():
        if after[name] - before[name] != seen:
            report.fail(f"/stats counted {after[name] - before[name]} {name}, the client {seen}")
    hit_ms = [1000.0 * r.latency_s for r in hits]
    miss_ms = [1000.0 * r.latency_s for r in misses]
    window_keys = prime + [r.key for r in streams["new"][:WINDOW]]
    counts = {f"serve.{name}": before[name]
              for name in ("executions", "cache_hits", "inflight_joins", "graph_hits")}
    for index, name in enumerate(("kernels.rounds", "congest.messages", "congest.bits")):
        counts[name] = sum(client.results[k][index] for k in window_keys if k in client.results)
    digest = combined_digest(client.digests.get(key, "missing") for key in window_keys)
    report.pin(load_pinned("serve-mix", seed, size), digest, counts)
    report.note(f"requests={len(replies)} hits={len(hits)} misses={len(misses)} "
                f"inflight={inflight}")
    if not trace:
        report.metric("setup_s", import_s + statistics.median(setup_times), "s",
                      f"imports {import_s:.3f} s + median of {SETUP_REPS} server set-ups")
        report.metric("ops_per_s", (len(hits) + len(misses)) / wall, "1/s",
                      "requests, both classes")
        report.percentile("op_ms_p50", hit_ms, 0.5)
        report.metric("peak_rss_mib", peak, "MiB", "server process")
        report.percentile("hit_ms_p90", hit_ms, 0.9, record=False)
        report.percentile("miss_ms_p50", miss_ms, 0.5, record=False)
        report.percentile("miss_ms_p90", miss_ms, 0.9, record=False)
        return {}

    from perfbench.spans import SpanTree, duration, read_spans

    tree = SpanTree(read_spans(WORK / "serve-spans.jsonl"))
    requests = [r for r in tree.roots("serve.request") if r["start"] >= clock.started]
    hit_spans = [r for r in requests if r.get("cache") == "hit"]
    miss_spans = [r for r in requests if r.get("cache") == "miss"]

    def median_ms(records, name: str) -> float:
        return 1000.0 * statistics.median(tree.total(r, name) for r in records)

    layers = {
        "serve.normalize_ms": median_ms(hit_spans, "serve.normalize"),
        "serve.cache_get_ms": median_ms(hit_spans, "cache.get_payload"),
        "serve.response_kib": statistics.median(r.size for r in hits) / 1024.0,
        "serve.transport_ms": 1000.0 * statistics.median(r.latency_s - r.wall_s for r in hits),
        "serve.execute_ms": median_ms(miss_spans, "run.session"),
        "serve.encode_ms": median_ms(miss_spans, "serve.encode"),
        "serve.cache_put_ms": median_ms(miss_spans, "cache.put_payload"),
        "serve.queue_ms": 1000.0 * statistics.median(tree.self_time(r) for r in miss_spans),
        "serve.hit_ms_p90": report.percentile("serve.hit_ms_p90", hit_ms, 0.9, record=False),
        "serve.miss_ms_p50": report.percentile("serve.miss_ms_p50", miss_ms, 0.5, record=False),
        "serve.miss_ms_p90": report.percentile("serve.miss_ms_p90", miss_ms, 0.9, record=False),
    }
    report.note(f"server spans: {len(hit_spans)} hits, {len(miss_spans)} misses "
                f"(median request {1000 * statistics.median(duration(r) for r in requests):.3f} ms)")
    layers.update(counts)
    return layers
