"""``serve-mix``: a closed loop of two clients against ``repro serve``.

Each round starts one ``repro serve --workers 2`` subprocess with an
empty cache (timed as a set-up sample, with one warm-up request), then
two client threads each send a fixed list of requests over one
keep-alive connection, the next only after the previous one returned:
multilevel partitions of inline CSR graphs, greedy cut-net SpMV
partitions, ``simulate`` and ``schedule`` jobs, and cache-hit
resubmissions.  Only the request loop is timed.

Known fault, kept as two counted failures per round.  Sending one
``use_cache: false`` request three times loses the server: the second
copy is answered from the first copy's scratch result file, which is
never removed, with the first copy's ``duration_s``;
``serve.pool.run_batch`` then SIGTERMs the worker it has just forked,
before the worker has reset its inherited signal handlers, so the
SIGTERM reaches the server's own handler and the server closes its
listener, and the third copy and the next ``/healthz`` are refused.
The same early SIGTERM fires when two requests with one cache key are
in flight together and the second is dispatched after the first wrote
its result.  The loop avoids both triggers: the clients draw seeds from
disjoint ranges, and each resubmits only keys it has already completed.

After the loop every round sends the request three times and then one
``/healthz``.  The stale second answer and the refused ``/healthz``
are the two failed operations.  The third copy is sent but not
counted: whether it is still answered is a race (it was in 2 rounds of
12), while the ``/healthz`` after it was refused in every round.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import instances as gen
import reference as ref
from harness import Tally, percentile, run_rounds

CLIENTS = 2
WORKERS = 2
MIN_ROUNDS = 3          # >= 200 computed requests per run, for p95
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0

#: the fault's trigger; fixed, so the failures do not depend on the seed
REPLAY = {"op": "partition", "k": 2, "eps": 0.1, "algorithm": "multilevel",
          "seed": 5, "use_cache": False, "mode": "sync",
          "graph": {"edges": [[0, 1, 2], [2, 3], [3, 4, 5], [5, 0], [1, 4]], "n": 6}}


@dataclass
class Op:
    kind: str                       # partition | schedule | simulate | hit
    body: dict
    inst: gen.Instance | None = None
    target: int = -1                # for hits: index of the op resubmitted


@dataclass
class Reply:
    status: int = 0
    body: dict = field(default_factory=dict)
    rtt_s: float = 0.0
    error: str = ""


def _csr(inst) -> dict:
    return {"csr": {"n": inst.n, "ptr": inst.ptr.tolist(), "pins": inst.pins.tolist()}}


def client_ops(seed: int, client: int) -> list:
    """The fixed request list of one client.  Seeds of the two clients
    come from disjoint ranges, so no cache key is ever sent by both."""
    rng = np.random.default_rng([seed, 5, client])
    s = 1_000_000 * (client + 1)
    ops = []
    for i in range(24):
        inst = gen.planted(rng, f"ml-{client}-{i}", 240, 4, 250, 30, 4, 0.05)
        ops.append(Op("partition", {"graph": _csr(inst), "k": 4, "eps": 0.05,
                                    "metric": "connectivity", "algorithm": "multilevel",
                                    "seed": s + i}, inst))
    for i in range(8):
        inst = gen.spmv_random(rng, f"spmv-{client}-{i}", 40, 40, 0.25, 4, 0.05, "cut-net")
        ops.append(Op("partition", {"graph": _csr(inst), "k": 4, "eps": 0.05,
                                    "metric": "cut-net", "algorithm": "greedy",
                                    "seed": s + 100 + i}, inst))
    for i in range(2):
        inst = gen.layered_hyperdag(rng, f"sim-{client}-{i}", 6, 10, 0.2, 4, 0.0)
        # unit durations, so the benchmark's own lower bound applies
        ops.append(Op("simulate", {"graph": _csr(inst), "k": 4, "scheduler": "heft",
                                   "imode": "exact", "dist": "fixed",
                                   "seed": s + 200 + i}, inst))
    for i in range(2):
        inst = gen.layered_hyperdag(rng, f"sched-{client}-{i}", 10, 12, 0.15, 4, 0.0)
        ops.append(Op("schedule", {"graph": _csr(inst), "k": 4, "seed": s + 300 + i}, inst))
    ops = [ops[j] for j in rng.permutation(len(ops))]
    out = []
    for i, op in enumerate(ops):
        op.body.update(op=op.kind, mode="sync", deadline_s=REQUEST_TIMEOUT_S)
        out.append(op)
        if i % 3 == 2:              # resubmit this client's previous op
            prev = len(out) - 2
            out.append(Op("hit", dict(out[prev].body), out[prev].inst, prev))
    return out


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _request(conn, method: str, path: str, body=None) -> Reply:
    t0 = time.perf_counter()
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        rtt = time.perf_counter() - t0
        text = raw.decode()
        data = json.loads(text) if text.startswith("{") else {"text": text}
        return Reply(resp.status, data, rtt)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        conn.close()
        return Reply(error=repr(exc), rtt_s=time.perf_counter() - t0)


def _once(port: int, method: str, path: str, body=None) -> Reply:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        return _request(conn, method, path, body)
    finally:
        conn.close()


class Server:
    """One ``repro serve`` subprocess in its own session, so that
    :meth:`stop` can reap everything it forked."""

    def __init__(self, root: str, work: str) -> None:
        self.port = _free_port()
        self.cache = tempfile.mkdtemp(prefix="cache-", dir=work)
        self.log = open(os.path.join(work, "serve.log"), "ab")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--workers", str(WORKERS), "--cache-dir", self.cache],
            env=env, stdout=self.log, stderr=self.log, start_new_session=True)
        deadline = time.monotonic() + START_TIMEOUT_S
        while _once(self.port, "GET", "/healthz").status != 200:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not come up; see serve.log")
            time.sleep(0.02)

    def counters(self) -> dict:
        text = _once(self.port, "GET", "/metrics").body.get("text", "")
        out = {m[0]: float(m[1]) for m in
               re.findall(r"^repro_serve_(\w+)_total (\S+)$", text, re.M)}
        for name, value in re.findall(
                r'^repro_serve_worker_counter\{name="(\w+)"\} (\S+)$', text, re.M):
            out["worker." + name] = float(value)
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(5)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()
        shutil.rmtree(self.cache, ignore_errors=True)


def _refusal(reply: Reply) -> list:
    """Why no result came back, or nothing when one did."""
    if reply.error:
        return [reply.error]
    if reply.status != 200 or reply.body.get("status") != "done":
        return [f"HTTP {reply.status} status {reply.body.get('status')}: "
                f"{str(reply.body.get('error', ''))[:200]}"]
    return []


def _check(op: Op, reply: Reply, replies: list) -> list:
    """Problems with a returned result, against the reference computations."""
    res, inst = reply.body["result"], op.inst
    if op.kind == "hit":
        original = replies[op.target].body.get("result")
        if not reply.body.get("cached") or res != original:
            return ["cache hit did not return the original result"]
        return []
    if op.kind == "partition":
        labels = np.asarray(res["labels"], dtype=np.int64)
        problems = ref.balance_problems(labels, inst.n, inst.k, op.body["eps"])
        if problems:
            return problems
        conn = ref.connectivity(inst.ptr, inst.pins, labels)
        cut = ref.cut_net(inst.ptr, inst.pins, labels)
        if (res["connectivity"], res["cut_net"]) != (conn, cut):
            problems.append(f"reported costs {res['connectivity']}/{res['cut_net']} "
                            f"!= recomputed {conn}/{cut}")
        if not res["balanced"]:
            problems.append("result claims to be unbalanced")
        return problems
    if op.kind == "schedule":
        return ref.schedule_problems(inst.n, inst.dag_edges, inst.k, res["procs"],
                                     res["times"], res["makespan"])
    workers = np.asarray(res["task_worker"])
    if res["tasks"] != inst.n or workers.shape != (inst.n,) \
            or workers.min() < 0 or workers.max() >= inst.k:
        return ["simulation does not place every task on a worker in [0, k)"]
    bound = ref.makespan_lower_bound(inst.n, inst.dag_edges, inst.k)
    if not res["makespan"] >= bound:
        return [f"makespan {res['makespan']} below the lower bound {bound}"]
    return []


def run(seed: int, seconds: float, tracer, root: str) -> dict:
    work = os.path.join(root, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve-mix-", dir=work)
    try:
        return _run(seed, seconds, tracer, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(seed: int, seconds: float, tracer, root: str, work: str) -> dict:
    plans = [client_ops(seed, c) for c in range(CLIENTS)]
    warm = gen.planted(np.random.default_rng([seed, 6]), "warm", 240, 4, 250, 30, 4, 0.05)
    warm_body = {"op": "partition", "graph": _csr(warm), "k": 4, "eps": 0.05,
                 "algorithm": "multilevel", "seed": 7, "mode": "sync"}
    ref_cost = {}
    for plan in plans:
        for op in plan:
            if op.kind == "partition":
                ref_cost[id(op)] = ref.flat_cost(op.inst.ptr, op.inst.pins,
                                                 op.inst.ref_labels, op.body["metric"])
    tally = Tally()
    setups: list = []
    samples = {"computed": [], "hit": [], "http": [], "queue": [],
               "partition": [], "simulate": [], "schedule": []}
    counts: list = []

    def do_round(timed) -> None:
        t0 = time.perf_counter()
        server = Server(root, work)
        try:
            warm_reply = _once(server.port, "POST", "/v1/partition", warm_body)
            if warm_reply.body.get("status") != "done":
                raise RuntimeError(f"warm-up request failed: {warm_reply}")
            setups.append(time.perf_counter() - t0)
            before = server.counters()
            results = [[] for _ in plans]
            gate = threading.Barrier(CLIENTS + 1)

            def client(c: int) -> None:
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=REQUEST_TIMEOUT_S)
                gate.wait()
                try:
                    for op in plans[c]:
                        results[c].append(_request(conn, "POST", "/v1/partition", op.body))
                finally:
                    conn.close()

            threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
            for t in threads:
                t.start()
            with timed():
                gate.wait()
                for t in threads:
                    t.join()
            after = server.counters()
            counts.append({k: after.get(k, 0.0) - before.get(k, 0.0)
                           for k in ("cache_hits", "cache_misses", "requeued",
                                     "worker.fm_passes")})
            for plan, replies in zip(plans, results):
                for op, reply in zip(plan, replies):
                    what = f"{op.kind} {op.inst.name}"
                    refused = _refusal(reply)
                    if refused:
                        tally.op(what, refused, wrong_output=False)
                        continue
                    if not tally.op(what, _check(op, reply, replies)):
                        continue
                    body = reply.body
                    samples["http"].append(reply.rtt_s - body["latency_s"])
                    if op.kind == "hit":
                        samples["hit"].append(reply.rtt_s)
                        continue
                    samples["computed"].append(reply.rtt_s)
                    samples["queue"].append(body["latency_s"] - body["duration_s"])
                    samples[op.kind].append(body["duration_s"])
                    if op.kind == "partition":
                        res = body["result"]
                        achieved = res["connectivity" if op.body["metric"] == "connectivity"
                                       else "cut_net"]
                        tally.ratio(achieved, ref_cost[id(op)])
            # the fault: the second of identical use_cache=false requests
            # is answered from the first one's scratch file, and the
            # server loses its listener
            first = _once(server.port, "POST", "/v1/partition", REPLAY)
            tally.op("use_cache=false request", _refusal(first), wrong_output=False)
            second = _once(server.port, "POST", "/v1/partition", REPLAY)
            problems = _refusal(second)
            if not problems and second.body["duration_s"] == first.body.get("duration_s"):
                problems = ["repeat answered from the first copy's scratch file, "
                            "not recomputed"]
            tally.op("use_cache=false repeat", problems, wrong_output=False)
            _once(server.port, "POST", "/v1/partition", REPLAY)
            health = _once(server.port, "GET", "/healthz")
            tally.op("/healthz after the third copy",
                     [health.error or f"HTTP {health.status}"] if health.status != 200 else [],
                     wrong_output=False)
        finally:
            server.stop()

    rounds = run_rounds(do_round, seconds, MIN_ROUNDS, tracer)
    ms = lambda xs: 1000.0 * statistics.median(xs)          # noqa: E731
    layer = {
        "serve.latency_p50_ms": ms(samples["computed"]),
        "serve.latency_p95_ms": 1000.0 * percentile(samples["computed"], 95),
        "serve.hit_latency_p50_ms": ms(samples["hit"]),
        "serve.http_ms": ms(samples["http"]),
        "serve.queue_ms": ms(samples["queue"]),
        "serve.runner.partition_ms": ms(samples["partition"]),
        "serve.runner.simulate_ms": ms(samples["simulate"]),
        "serve.runner.schedule_ms": ms(samples["schedule"]),
        "serve.jobs.cache_hits": statistics.mean(c["cache_hits"] for c in counts),
        "serve.jobs.cache_misses": statistics.mean(c["cache_misses"] for c in counts),
        "serve.jobs.requeued": statistics.mean(c["requeued"] for c in counts),
        "serve.worker.fm_passes": statistics.mean(c["worker.fm_passes"] for c in counts),
    }
    return {"tally": tally, "rounds": rounds, "import_s": 0.0, "setups": setups,
            "layer": layer}
