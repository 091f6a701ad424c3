"""The four benchmark workloads and the checks on their outputs.

Each workload turns ``--seed`` into input arrays (or wire bodies) during
set-up and hands the program only those.  ``run_loop`` runs whole units of
jobs (one solve, one solve per instance, one edit chain, one round of a
cold and three cached jobs per connection) and returns a :class:`Job` per
job, checked outside its timed region.  Why each workload exists, and which
layer it stresses, is in ``README.md`` beside this file.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core.problem import NetworkAlignmentProblem
from repro.generators import (
    dmela_scere,
    lcsh_wiki,
    powerlaw_alignment_instance,
)
from repro.generators.perturb import edit_script
from repro.graph import Graph
from repro.incremental import WarmState, realign
from repro.matching.validate import check_matching
from repro.serve.wire import problem_to_wire, result_to_wire
from repro.sparse import BipartiteGraph

#: The paper's batched rounding: approximate matching, exact final pass.
BP_CONFIG = {"n_iter": 100, "batch": 8, "matcher": "approx",
             "final_exact": True}
#: Relative tolerance when two computations of one objective are compared.
REL_TOL = 1e-9
POWERLAW_N = 5000


@dataclass
class Job:
    kind: str
    seconds: float
    instance: str
    objective: float = float("nan")
    planted_objective: float = float("nan")
    error: str = ""
    # Cold HTTP jobs: server-side queue wait and run time, and the result.
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    payload: dict | None = None
    #: The unit (solve, instance pair, edit chain, round) the job ran in.
    unit: int = 0


@dataclass
class Instance:
    """A generated instance as plain arrays, plus its planted alignment."""

    name: str
    n_a: int
    n_b: int
    a_edges: tuple
    b_edges: tuple
    l_edges: tuple
    alpha: float
    beta: float
    planted_mate_a: np.ndarray
    planted_objective: float = field(default=float("nan"))

    @classmethod
    def from_problem(cls, name, problem, planted_mate_a):
        a, b, ell = problem.a_graph, problem.b_graph, problem.ell
        inst = cls(name, a.n, b.n, (a.edge_u, a.edge_v),
                   (b.edge_u, b.edge_v),
                   (ell.edge_a, ell.edge_b, ell.weights),
                   problem.alpha, problem.beta, planted_mate_a)
        inst.planted_objective = inst.objective(inst.planted_in_l())
        return inst

    def build(self) -> NetworkAlignmentProblem:
        """The program's problem build from the arrays (a job's first step)."""
        return NetworkAlignmentProblem(
            Graph.from_edges(self.n_a, *self.a_edges),
            Graph.from_edges(self.n_b, *self.b_edges),
            BipartiteGraph.from_edges(self.n_a, self.n_b, *self.l_edges,
                                      dedup="first"),
            alpha=self.alpha, beta=self.beta, name=self.name,
        )

    def stats(self) -> dict:
        deg_a = np.bincount(np.concatenate(self.a_edges), minlength=self.n_a)
        deg_b = np.bincount(np.concatenate(self.b_edges), minlength=self.n_b)
        l_a, l_b, _ = self.l_edges
        return {"edges_l": int(len(l_a)),
                "candidate_pairs": int((deg_a[l_a] * deg_b[l_b]).sum())}

    def _l_keys(self):
        l_a, l_b, _ = self.l_edges
        return l_a * self.n_b + l_b

    def planted_in_l(self) -> np.ndarray:
        """The planted mates restricted to pairs that are edges of L."""
        mate = self.planted_mate_a.copy()
        rows = np.flatnonzero(mate >= 0)
        keys = self._l_keys()
        present = np.isin(rows * self.n_b + mate[rows], keys)
        mate[rows[~present]] = -1
        return mate

    def objective(self, mate_a: np.ndarray) -> float:
        """``α·w(M) + β·overlap(M)`` from the arrays alone, without **S**.

        An A edge ``(i, j)`` is overlapped when both ends are matched and
        ``(mate(i), mate(j))`` is an edge of B.  Raises ``ValueError`` when
        a matched pair is not an edge of L.
        """
        keys = self._l_keys()
        order = np.argsort(keys, kind="stable")
        rows = np.flatnonzero(mate_a >= 0)
        probe = rows * self.n_b + mate_a[rows]
        pos = np.searchsorted(keys, probe, sorter=order)
        pos = np.minimum(pos, len(keys) - 1)
        if len(rows) and not (keys[order[pos]] == probe).all():
            raise ValueError("a matched pair is not an edge of L")
        weight = float(self.l_edges[2][order[pos]].sum()) if len(rows) \
            else 0.0
        u, v = self.a_edges
        mu, mv = mate_a[u], mate_a[v]
        both = (mu >= 0) & (mv >= 0)
        lo = np.minimum(mu[both], mv[both])
        hi = np.maximum(mu[both], mv[both])
        b_u, b_v = self.b_edges
        overlap = int(np.isin(lo * self.n_b + hi, b_u * self.n_b + b_v).sum())
        return self.alpha * weight + self.beta * overlap


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_matching_objective(inst: Instance, problem, eids,
                             objective: float) -> str:
    """Empty when the L edges ``eids`` form a matching whose objective
    the program and the arrays both reproduce; else what failed."""
    try:
        check_matching(problem.ell, eids)
    except repro.errors.NotAMatchingError as exc:
        return f"invalid matching: {exc}"
    x = np.zeros(problem.n_edges_l)
    x[eids] = 1.0
    mate_a = np.full(inst.n_a, -1, dtype=np.int64)
    mate_a[problem.ell.edge_a[eids]] = problem.ell.edge_b[eids]
    try:
        independent = inst.objective(mate_a)
    except ValueError as exc:
        return str(exc)
    for what, value in (("problem.objective", problem.objective(x)),
                        ("the arrays", independent)):
        if not _close(value, objective):
            return f"objective {objective!r} but {what} gives {value!r}"
    return ""


def check_result(inst: Instance, problem, result) -> str:
    """:func:`check_matching_objective` for an in-process result."""
    return check_matching_objective(inst, problem, result.matching.edge_ids,
                                    result.objective)


def take_peak_rss_mb() -> float:
    """This process's peak RSS since the previous call, in MB.

    Reads Linux's high-water mark ``VmHWM`` and resets it, so each unit
    of work gets its own peak; their median is steadier than one peak
    over a whole run.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return kb / 1024.0


def _generator(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ----------------------------------------------------------------------
class InProcess:
    """Shared set-up and job timing of the in-process workloads."""

    serve = False
    #: A fresh process's first unit runs slower while new memory is
    #: faulted in; the median of three units discards it.
    MIN_UNITS = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.unit_peaks_mb = []

    def close(self):
        pass

    def peak_rss_mb(self) -> float:
        return statistics.median(self.unit_peaks_mb)

    def _solve(self, inst: Instance, recorder) -> Job:
        with recorder.span("job"):
            t0 = time.perf_counter()
            with recorder.span("core.problem.build"):
                problem = inst.build()
            result = repro.align(problem, "bp", BP_CONFIG)
            seconds = time.perf_counter() - t0
        return Job("solve", seconds, inst.name, result.objective,
                   inst.planted_objective,
                   check_result(inst, problem, result))

    def run_unit(self, recorder):
        return [self._solve(inst, recorder) for inst in self.instances]

    def run_loop(self, seconds, recorder):
        """Whole units until ``seconds`` have passed and at least
        ``MIN_UNITS`` ran: (jobs, wall s)."""
        jobs = []
        t0 = time.perf_counter()
        for unit in itertools.count(1):
            take_peak_rss_mb()
            for job in self.run_unit(recorder):
                job.unit = unit
                jobs.append(job)
            self.unit_peaks_mb.append(take_peak_rss_mb())
            if unit >= self.MIN_UNITS and \
                    time.perf_counter() - t0 >= seconds:
                return jobs, time.perf_counter() - t0

    def check(self, jobs):
        pass  # each job is checked as it completes

    def instance_stats(self):
        return {inst.name: inst.stats() for inst in self.instances}


def _powerlaw(seed: int) -> Instance:
    n = POWERLAW_N
    gen = powerlaw_alignment_instance(n=n, expected_degree=7,
                                      p_perturb=20 / n,
                                      seed=_generator(seed, 1))
    return Instance.from_problem("powerlaw", gen.problem, gen.true_mate_a)


class BpPowerlaw(InProcess):
    def setup(self):
        self.instances = [_powerlaw(self.seed)]


class BpPaper(InProcess):
    def setup(self):
        self.instances = [
            Instance.from_problem(name, gen.problem, gen.true_mate_a)
            for name, gen in (
                ("dmela_scere", dmela_scere(
                    scale=1.0, seed=_generator(self.seed, 2))),
                ("lcsh_wiki", lcsh_wiki(
                    scale=0.01, seed=_generator(self.seed, 3))),
            )
        ]


class RealignDrift(InProcess):
    """A fixed chain of edits, re-run from the same warm seed solve."""

    STEPS = 6
    #: Set-up's seed solve already warmed the process.
    MIN_UNITS = 1

    def setup(self):
        self.instances = [_powerlaw(self.seed)]
        problem = self.instances[0].build()
        result = repro.align(problem, "bp", BP_CONFIG, keep_state=True)
        self.start = (problem, WarmState.from_result(problem, result))
        self.deltas = []
        for step in range(self.STEPS):
            delta = edit_script(problem, l_edge_rate=0.01, weight_rate=0.01,
                                seed=_generator(self.seed, 4, step))
            self.deltas.append(delta)
            problem, _ = problem.apply_delta(delta)

    def run_unit(self, recorder):
        planted = self.instances[0].planted_mate_a
        problem, warm = self.start
        jobs = []
        for step, delta in enumerate(self.deltas):
            with recorder.span("job"):
                t0 = time.perf_counter()
                problem, result, _ = realign(problem, delta, warm,
                                             config=BP_CONFIG)
                with recorder.span("incremental.capture"):
                    warm = WarmState.from_result(problem, result)
                seconds = time.perf_counter() - t0
            inst = Instance.from_problem(f"step{step + 1}", problem, planted)
            jobs.append(Job("step", seconds, inst.name, result.objective,
                            inst.planted_objective,
                            check_result(inst, problem, result)))
        return jobs


# ----------------------------------------------------------------------
class ServeMixed:
    """HTTP closed loop: 2 connections, each 1 cold then 3 cached jobs."""

    serve = True
    CONNECTIONS = 2
    CACHED_PER_COLD = 3
    N_ITER = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.proc = None
        self.tmp_root = os.path.join(os.getcwd(), ".perfbench_tmp")
        self.store = os.path.join(self.tmp_root, f"store-{os.getpid()}")
        self._counter = 0
        self._lock = threading.Lock()
        self.round_peaks_mb = []

    # -- server process --------------------------------------------------
    def _command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def _start_server(self):
        shutil.rmtree(self.store, ignore_errors=True)
        os.makedirs(self.store)
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(here), "src"), here])
        # glibc adapts its mmap threshold to the sizes of freed blocks.
        # With two worker threads the order of frees, and so whether S's
        # temporaries are reused from the heap or mapped afresh, changes
        # from run to run: cold latency and peak RSS moved by ±10%.  The
        # fixed value is glibc's initial threshold.
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "server.py"), self.store],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the server process exited during start-up")
        self.port = json.loads(line)["port"]

    def _stop_server(self):
        try:
            self._command("stop")
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None
            shutil.rmtree(self.store, ignore_errors=True)

    def close(self):
        if self.proc is not None:
            self._stop_server()
        try:
            os.rmdir(self.tmp_root)
        except OSError:
            pass  # absent, or in use by another run

    def setup(self):
        if self.proc is not None:
            self._stop_server()
        # One instance per connection: a round's mean then averages two
        # instances, which halves the seed-to-seed spread of cold latency.
        n = POWERLAW_N
        self.instances, self.bodies = [], []
        for conn in range(self.CONNECTIONS):
            gen = powerlaw_alignment_instance(
                n=n, expected_degree=4, p_perturb=8 / n,
                seed=_generator(self.seed, 5, conn))
            self.instances.append(Instance.from_problem(
                f"powerlaw_serve{conn}", gen.problem, gen.true_mate_a))
            wire = json.dumps(problem_to_wire(gen.problem)).encode("utf-8")
            self.bodies.append((b'{"method": "bp", "config": ',
                                b', "problem": ' + wire + b"}"))
        self._start_server()
        # Warm the fresh server (lazy imports, allocator, journal) with one
        # cold job and its resubmission; the first cold job otherwise
        # runs about 20% slower than the rest.
        cold, body = self._cold(0)
        warm = [cold] + self._cached(0, body, cold)[:1]
        errors = [job.error for job in warm if job.error]
        if errors:
            raise RuntimeError(f"server warm-up failed: {errors[0]}")

    def peak_rss_mb(self) -> float:
        return statistics.median(self.round_peaks_mb)

    @property
    def body_bytes(self) -> float:
        return statistics.fmean(len(b"".join(parts)) for parts in self.bodies)

    def instance_stats(self):
        stats = {inst.name: inst.stats() for inst in self.instances}
        for inst, parts in zip(self.instances, self.bodies):
            stats[inst.name]["body_bytes"] = len(b"".join(parts))
        return stats

    # -- traffic ---------------------------------------------------------
    def _request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _round_trip(self, body):
        """POST ?wait=1 then GET the result: (seconds, doc, payload)."""
        t0 = time.perf_counter()
        status, data = self._request("POST", "/v1/jobs?wait=1", body)
        if status != 200:
            raise RuntimeError(f"POST answered {status}: {data[:200]!r}")
        doc = json.loads(data)
        status, result = self._request("GET", f"/v1/jobs/{doc['id']}/result")
        seconds = time.perf_counter() - t0
        if status != 200:
            raise RuntimeError(f"GET result answered {status}")
        return seconds, doc, json.loads(result)

    def _cold(self, conn):
        """One cold job on ``conn``'s instance with a fresh
        ``config.seed``: (job, body)."""
        with self._lock:
            self._counter += 1
            job_seed = self.seed * 1_000_000 + self._counter
        self.config = dict(BP_CONFIG, n_iter=self.N_ITER, seed=job_seed)
        prefix, suffix = self.bodies[conn]
        body = prefix + json.dumps(self.config).encode("utf-8") + suffix
        inst = self.instances[conn]
        try:
            seconds, doc, payload = self._round_trip(body)
        except (OSError, RuntimeError, ValueError) as exc:
            return Job("cold", 0.0, inst.name, error=str(exc)), body
        job = Job("cold", seconds, inst.name, payload["objective"],
                  inst.planted_objective,
                  queue_wait_s=doc["started"] - doc["created"],
                  run_s=doc["finished"] - doc["started"], payload=payload)
        if doc["cached"] or payload.pop("cached", True):
            job.error = "a fresh config was answered from the cache"
        return job, body

    def _cached(self, conn, body, cold):
        """Identical resubmissions of ``cold``'s body."""
        inst = self.instances[conn]
        jobs = []
        for _ in range(self.CACHED_PER_COLD):
            try:
                seconds, doc, payload = self._round_trip(body)
            except (OSError, RuntimeError, ValueError) as exc:
                jobs.append(Job("cached", 0.0, inst.name, error=str(exc)))
                continue
            job = Job("cached", seconds, inst.name, payload["objective"],
                      inst.planted_objective)
            if not (doc["cached"] and payload.pop("cached", False)):
                job.error = "resubmission was not answered from the cache"
            elif payload != cold.payload:
                job.error = "cached payload differs from its cold original"
            jobs.append(job)
        return jobs

    def run_loop(self, seconds, recorder=None):
        """Rounds until ``seconds`` have passed: (jobs, wall seconds).

        In a round every connection submits one cold job, and once all
        cold jobs are answered, its cached resubmissions.  Free-running
        connections drift in and out of phase, so a cold solve would
        share the process with another solve, with cached decodes, or
        with nothing, and cold latency would depend on that phase.
        Spans are recorded in the server.
        """
        t0 = time.perf_counter()
        go = [None]

        def decide():
            # Runs between rounds, when no request is in flight.
            peak = self._command("rss")["peak_rss_mb"]
            if go[0] is not None:
                self.round_peaks_mb.append(peak)
            go[0] = time.perf_counter() - t0 < seconds

        start = threading.Barrier(self.CONNECTIONS, action=decide,
                                  timeout=600)
        cold_done = threading.Barrier(self.CONNECTIONS, timeout=600)
        results = [[] for _ in range(self.CONNECTIONS)]
        crashes = []

        def client(conn, out):
            try:
                for unit in itertools.count():
                    start.wait()
                    if not go[0]:
                        return
                    cold, body = self._cold(conn)
                    cold_done.wait()
                    jobs = [cold] if cold.error else \
                        [cold] + self._cached(conn, body, cold)
                    for job in jobs:
                        job.unit = unit
                    out.extend(jobs)
            except threading.BrokenBarrierError:
                return  # another connection stopped
            except Exception as exc:  # re-raised below, in the caller
                crashes.append(exc)
            finally:
                start.abort()
                cold_done.abort()

        threads = [threading.Thread(target=client, args=(conn, out))
                   for conn, out in enumerate(results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if crashes:
            raise crashes[0]
        return [job for out in results for job in out], \
            time.perf_counter() - t0

    def trace_on(self):
        self._command("trace on")

    def trace_off(self) -> dict:
        return self._command("trace off")

    def check(self, jobs):
        """Check every cold payload against the arrays and an in-process
        solve of the same problem.  Cold jobs of one instance differ only
        in ``config.seed``, which BP does not consume, so one solve per
        instance serves as the reference for all of them."""
        for inst in self.instances:
            problem = inst.build()
            reference = result_to_wire(
                repro.align(problem, "bp", self.config))
            for job in jobs:
                if job.instance == inst.name and job.payload is not None \
                        and not job.error:
                    job.error = self._check_payload(inst, problem,
                                                    job.payload, reference)
        for job in jobs:
            job.payload = None

    @staticmethod
    def _check_payload(inst, problem, payload, reference) -> str:
        pairs = np.asarray(payload["matching"], dtype=np.int64).reshape(-1, 2)
        if len(pairs) and not (
                (pairs >= 0).all() and pairs[:, 0].max() < inst.n_a
                and pairs[:, 1].max() < inst.n_b):
            return "a matched vertex is out of range"
        eids = problem.ell.lookup_edges(pairs[:, 0], pairs[:, 1])
        if (eids < 0).any():
            return "a matched pair is not an edge of L"
        error = check_matching_objective(inst, problem, eids,
                                         payload["objective"])
        if error:
            return error
        if not _close(reference["objective"], payload["objective"]):
            return (f"objective {payload['objective']!r} but an in-process "
                    f"align() gives {reference['objective']!r}")
        if payload["matching"] != reference["matching"]:
            return "matching differs from an in-process align()"
        return ""


WORKLOADS = {
    "bp_powerlaw": BpPowerlaw,
    "bp_paper": BpPaper,
    "serve_mixed": ServeMixed,
    "realign_drift": RealignDrift,
}
