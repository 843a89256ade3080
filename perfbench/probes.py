"""Per-layer probes for the traced benchmark run.

``install()`` wraps public callables of the program's modules in the
process that runs the program (see ``boot.py``).  Each wrapper counts
the work a layer did and the time it was busy; nothing inside the
program changes.  Seams are class methods and module attributes that
callers look up at call time: a function imported by name elsewhere
(``repro.ioutil.append_line``) would not see the wrapper.

Forked daemon workers inherit the wrappers.  ``_child_main`` is wrapped
so each worker zeroes the inherited tallies at start and writes its own
file when it stops; the parent writes its file at exit.  The benchmark
sums every file in the probe directory.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: environment variable naming the directory the tallies go to
PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"


class Tally:
    """Counts, busy seconds and latency samples of one process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.samples = defaultdict(list)

    def add(self, counts=(), times=(), samples=()) -> None:
        with self.lock:
            for name, value in counts:
                self.counts[name] += value
            for name, value in times:
                self.times[name] += value
            for name, value in samples:
                self.samples[name].append(value)

    # Per-thread solver accounting: the solver time spent inside a call
    # of another layer is the growth of this total across that call.
    def solver_total(self) -> float:
        return getattr(self.local, "solver_total", 0.0)

    def dump(self, directory: str) -> None:
        with self.lock:
            doc = {"counts": dict(self.counts), "times": dict(self.times),
                   "samples": {k: list(v) for k, v in self.samples.items()}}
        path = Path(directory) / f"{os.getpid()}.json"
        path.write_text(json.dumps(doc))


TALLY = Tally()


def _timed_layer(prefix: str, outcome=None):
    """Wrapper factory for a layer whose self time excludes the solver:
    counts calls, busy time, solver time inside, and (when ``outcome``
    maps the return value to 0/1) useful outcomes."""
    def decorate(orig):
        def wrapper(*args, **kwargs):
            solver_before = TALLY.solver_total()
            started = time.perf_counter()
            result = orig(*args, **kwargs)
            busy = time.perf_counter() - started
            inside = TALLY.solver_total() - solver_before
            counts = [(f"{prefix}.calls", 1)]
            if outcome is not None:
                counts.append((f"{prefix}.useful", outcome(result)))
            TALLY.add(counts=counts,
                      times=[(f"{prefix}.busy_s", busy),
                             (f"{prefix}.self_s", busy - inside)])
            return result
        wrapper.__wrapped__ = orig
        return wrapper
    return decorate


def _busy_layer(prefix: str, count_name: str, extra=None):
    """Wrapper factory counting calls and busy time; ``extra`` may add
    counts derived from (args, result)."""
    def decorate(orig):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = orig(*args, **kwargs)
            busy = time.perf_counter() - started
            counts = [(f"{prefix}.{count_name}", 1)]
            if extra is not None:
                counts.extend(extra(args, result))
            TALLY.add(counts=counts, times=[(f"{prefix}.busy_s", busy)])
            return result
        wrapper.__wrapped__ = orig
        return wrapper
    return decorate


def _solver_call(orig, extended: bool):
    def wrapper(self, *args, **kwargs):
        local = TALLY.local
        depth = getattr(local, "solver_depth", 0)
        hits_before = self.stat_cache_hits
        local.solver_depth = depth + 1
        started = time.perf_counter()
        try:
            out = orig(self, *args, **kwargs)
        finally:
            local.solver_depth = depth
        busy = time.perf_counter() - started
        result = out[0] if extended else out
        status = result.status.value
        counts = [(f"solver.calls_{status}", 1)]
        # A delta-cache hit returns a stored verdict: no search ran.
        if self.stat_cache_hits == hits_before:
            counts.append(("solver.dfs_nodes", result.nodes_explored))
        if status == "unknown":
            if extended:
                ctx, delta = args[0], args[1]
                key = frozenset(ctx.constraints) | frozenset(delta)
            else:
                key = frozenset(args[0])
            seen = getattr(local, "drive_unknowns", None)
            if seen is not None:
                if key in seen:
                    counts.append(("solver.repeat_unknown_calls", 1))
                seen.add(key)
        times = []
        if depth == 0:
            times.append(("solver.busy_s", busy))
            if status == "unknown":
                times.append(("solver.unknown_busy_s", busy))
            local.solver_total = TALLY.solver_total() + busy
        TALLY.add(counts=counts, times=times)
        return out
    wrapper.__wrapped__ = orig
    return wrapper


def _drive(orig):
    def wrapper(self, report):
        local = TALLY.local
        local.drive_unknowns = set()
        solver_before = TALLY.solver_total()
        started = time.perf_counter()
        try:
            result = orig(self, report)
        finally:
            local.drive_unknowns = None
        busy = time.perf_counter() - started
        stats = self.last_stats or {}
        TALLY.add(
            counts=[("triage.drives", 1),
                    ("res.nodes_expanded", stats.get("nodes_expanded", 0)),
                    ("res.candidates_executed",
                     stats.get("candidates_executed", 0)),
                    ("res.suffixes_emitted",
                     stats.get("suffixes_emitted", 0))],
            times=[("triage.busy_s", busy),
                   ("triage.solver_s", TALLY.solver_total() - solver_before)],
            samples=[("triage.drive_ms", busy * 1000.0)])
        return result
    wrapper.__wrapped__ = orig
    return wrapper


def _store_flush(orig):
    def wrapper(self, *args, **kwargs):
        started = time.perf_counter()
        result = orig(self, *args, **kwargs)
        busy = time.perf_counter() - started
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        TALLY.add(counts=[("store.flushes", 1),
                          ("store.bytes_written", size)],
                  times=[("store.flush_busy_s", busy)])
        return result
    wrapper.__wrapped__ = orig
    return wrapper


def _submit(orig):
    def wrapper(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            status, payload = orig(self, *args, **kwargs)
        except OSError:
            TALLY.add(counts=[("daemon.refused", 1)],
                      times=[("daemon.submit_busy_s",
                              time.perf_counter() - started)])
            raise
        busy = time.perf_counter() - started
        counts = [("daemon.submits", 1)]
        # Answered from history (200) or attached to a pending drive of
        # the same crash (202): either way no drive runs for it.
        if (status == 200 and payload.get("dedup_of") is not None) \
                or (status == 202 and "attached_to" in payload):
            counts.append(("daemon.dedup_hits", 1))
        if status not in (200, 202):
            counts.append(("daemon.refused", 1))
        TALLY.add(counts=counts, times=[("daemon.submit_busy_s", busy)])
        return status, payload
    wrapper.__wrapped__ = orig
    return wrapper


def _executor_run(orig):
    def wrapper(self, *args, **kwargs):
        started = time.perf_counter()
        triaged = orig(self, *args, **kwargs)
        round_trip = time.perf_counter() - started
        TALLY.add(counts=[("workerpool.runs", 1)],
                  times=[("workerpool.busy_s", round_trip),
                         ("workerpool.ipc_s",
                          round_trip - triaged.seconds)])
        return triaged
    wrapper.__wrapped__ = orig
    return wrapper


def _child_main(orig, directory: str):
    def wrapper(*args, **kwargs):
        TALLY.reset()  # the fork copied the parent's tallies
        try:
            return orig(*args, **kwargs)
        finally:
            TALLY.dump(directory)
    wrapper.__wrapped__ = orig
    return wrapper


def install(directory: str) -> None:
    """Wrap every probed seam and dump this process's tally at exit."""
    from repro.core import bucketing, rescache, triage, triage_service
    from repro.core.replay import SuffixReplayer
    from repro.core.slice_exec import SegmentExecutor
    from repro.service import daemon, http_api, jobs, workerpool
    from repro.symex.solver import Solver
    from repro.vm.coredump import Coredump

    Solver.solve = _solver_call(Solver.solve, extended=False)
    Solver.solve_extended = _solver_call(Solver.solve_extended,
                                         extended=True)
    SegmentExecutor.execute = _timed_layer(
        "slice_exec", outcome=lambda r: int(bool(r.feasible)))(
            SegmentExecutor.execute)
    SuffixReplayer.replay = _timed_layer(
        "replay", outcome=lambda r: int(bool(r)))(SuffixReplayer.replay)
    triage.TriageEngine.triage_one = _drive(triage.TriageEngine.triage_one)

    rc = rescache.ResultCache
    rc.lookup = _busy_layer(
        "rescache", "lookups",
        extra=lambda args, hit: [("rescache.hits", int(hit is not None))]
    )(rc.lookup)
    rc.put = _busy_layer("rescache", "puts")(rc.put)

    triage_service.TriageStore.flush = _store_flush(
        triage_service.TriageStore.flush)
    triage_service.refined_results = _busy_layer("bucketing", "refines")(
        triage_service.refined_results)
    refiner = bucketing.IncrementalRefiner
    refiner.add = _busy_layer("bucketing", "incremental_adds")(refiner.add)
    refiner.refinement = _busy_layer("bucketing", "incremental_passes")(
        refiner.refinement)

    daemon.TriageDaemon.submit = _submit(daemon.TriageDaemon.submit)
    handler = http_api.IntakeRequestHandler
    handler.do_POST = _busy_layer("http_api", "posts")(handler.do_POST)
    journal = jobs.JobJournal
    journal.record_submit = _busy_layer("jobs", "appends")(
        journal.record_submit)
    journal.record_done = _busy_layer("jobs", "appends")(journal.record_done)
    workerpool.ProcessExecutor.run = _executor_run(
        workerpool.ProcessExecutor.run)
    workerpool._child_main = _child_main(workerpool._child_main, directory)
    Coredump.fingerprint = _busy_layer("coredump", "fingerprints")(
        Coredump.fingerprint)

    parent = os.getpid()

    def dump_parent() -> None:
        if os.getpid() == parent:
            TALLY.dump(directory)

    atexit.register(dump_parent)
