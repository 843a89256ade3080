"""The repository's benchmark: one command per workload, run from the
root of a checkout.

    python3 perfbench/run.py --workload novel-intake --seed 0 \\
        --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` runs it under the per-layer probes
(``boot.py``) and reports the per-layer metrics instead.  Every run
checks the program's outputs; a run that fails a check reports no
metrics and exits 1.  The last line of standard output is the result
object; the line before it (``perfbench-report ...``) holds
provenance, every check, tail percentiles and per-session figures.

``--smoke`` is the benchmark's own test: every workload at a tiny
size, traced and untraced, asserting that each metric named in
``BENCHMARK.json`` is emitted with its unit and that every output check
ran.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from harness import (ROOT, RUNS_DIR, WORK_ROOT, BenchError, HostWatch,
                     latency_summary, merge_probes, provenance,
                     require_program)
from workloads import (FULL, SMOKE, STORM_HASH_SEED, Size, Session,
                       build_corpus, cold_triage_session, daemon_setups,
                       dup_storm_session, novel_intake_session,
                       prime_storm_cache, storm_stream)

WORKLOADS = ("cold-triage", "dup-storm", "novel-intake")
#: what each workload's latency samples time (see README): reported
#: per run, not gated
LATENCY_OF = {"cold-triage": "drive", "dup-storm": "ack",
              "novel-intake": "verdict"}
#: extra daemon launches in ``dup-storm``, whose one or two sessions
#: per run would otherwise give as few set-up samples
EXTRA_STORM_SETUPS = 4

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reports_per_s": "1/s",
    "bucket_accuracy": "ratio",
    "root_cause_share": "ratio",
    "settled_share": "ratio",
}

PER_LAYER_UNITS = {
    "solver.calls_sat": "count",
    "solver.calls_unsat": "count",
    "solver.calls_unknown": "count",
    "solver.dfs_nodes": "count",
    "solver.busy_s": "s",
    "solver.unknown_busy_s": "s",
    "solver.unknown_share": "ratio",
    "solver.repeat_unknown_calls": "count",
    "slice_exec.calls": "count",
    "slice_exec.feasible_share": "ratio",
    "slice_exec.self_s": "s",
    "replay.calls": "count",
    "replay.ok_share": "ratio",
    "replay.self_s": "s",
    "triage.drives": "count",
    "triage.drive_p50_ms": "ms",
    "triage.drive_tail_ms": "ms",
    "triage.solver_share": "ratio",
    "res.nodes_expanded": "count",
    "res.candidates_executed": "count",
    "res.suffixes_emitted": "count",
    "rescache.lookups": "count",
    "rescache.hits": "count",
    "rescache.puts": "count",
    "rescache.busy_s": "s",
    "store.flushes": "count",
    "store.flush_busy_s": "s",
    "store.bytes_written": "bytes",
    "bucketing.refine_busy_s": "s",
    "daemon.submit_busy_s": "s",
    "daemon.dedup_hits": "count",
    "daemon.refused": "count",
    "jobs.appends": "count",
    "jobs.append_busy_s": "s",
    "http_api.posts": "count",
    "http_api.overhead_s": "s",
    "workerpool.runs": "count",
    "workerpool.ipc_s": "s",
    "coredump.fingerprint_busy_s": "s",
}

#: counts two traced sweeps at the same seeds must reproduce exactly
DETERMINISTIC_COUNTS = (
    "solver.calls_sat", "solver.calls_unsat", "solver.calls_unknown",
    "solver.dfs_nodes", "solver.repeat_unknown_calls", "slice_exec.calls",
    "replay.calls", "triage.drives", "res.nodes_expanded",
    "res.candidates_executed", "res.suffixes_emitted", "rescache.lookups",
    "rescache.hits", "rescache.puts", "store.flushes", "daemon.dedup_hits",
    "daemon.refused", "jobs.appends", "http_api.posts", "workerpool.runs",
)
#: counts that arrival order decides when two clients race: settles
#: that land together coalesce into one store snapshot
RACY_COUNTS = {"novel-intake": ("store.flushes",)}
#: layers a workload bypasses: their counts must be zero when traced
BYPASSED = {
    "dup-storm": ("solver.calls_sat", "solver.calls_unsat",
                  "solver.calls_unknown", "triage.drives"),
    "cold-triage": ("jobs.appends", "http_api.posts", "http_api.overhead_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(session: Session) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    probes = session.probes or {"counts": {}, "times": {}, "samples": {}}
    c, t = probes["counts"], probes["times"]

    def count(name: str) -> int:
        return int(c.get(name, 0))

    calls = sum(count(f"solver.calls_{s}")
                for s in ("sat", "unsat", "unknown"))
    drives = latency_summary(probes["samples"].get("triage.drive_ms", []))
    return {
        "solver.calls_sat": count("solver.calls_sat"),
        "solver.calls_unsat": count("solver.calls_unsat"),
        "solver.calls_unknown": count("solver.calls_unknown"),
        "solver.dfs_nodes": count("solver.dfs_nodes"),
        "solver.busy_s": t.get("solver.busy_s", 0.0),
        "solver.unknown_busy_s": t.get("solver.unknown_busy_s", 0.0),
        "solver.unknown_share": _ratio(count("solver.calls_unknown"), calls),
        "solver.repeat_unknown_calls": count("solver.repeat_unknown_calls"),
        "slice_exec.calls": count("slice_exec.calls"),
        "slice_exec.feasible_share": _ratio(count("slice_exec.useful"),
                                            count("slice_exec.calls")),
        "slice_exec.self_s": t.get("slice_exec.self_s", 0.0),
        "replay.calls": count("replay.calls"),
        "replay.ok_share": _ratio(count("replay.useful"),
                                  count("replay.calls")),
        "replay.self_s": t.get("replay.self_s", 0.0),
        "triage.drives": count("triage.drives"),
        "triage.drive_p50_ms": drives["p50"],
        "triage.drive_tail_ms": drives["tail"],
        "triage.solver_share": _ratio(t.get("triage.solver_s", 0.0),
                                      t.get("triage.busy_s", 0.0)),
        "res.nodes_expanded": count("res.nodes_expanded"),
        "res.candidates_executed": count("res.candidates_executed"),
        "res.suffixes_emitted": count("res.suffixes_emitted"),
        "rescache.lookups": count("rescache.lookups"),
        "rescache.hits": count("rescache.hits"),
        "rescache.puts": count("rescache.puts"),
        "rescache.busy_s": t.get("rescache.busy_s", 0.0),
        "store.flushes": count("store.flushes"),
        "store.flush_busy_s": t.get("store.flush_busy_s", 0.0),
        "store.bytes_written": count("store.bytes_written"),
        "bucketing.refine_busy_s": t.get("bucketing.busy_s", 0.0),
        "daemon.submit_busy_s": t.get("daemon.submit_busy_s", 0.0),
        "daemon.dedup_hits": count("daemon.dedup_hits"),
        "daemon.refused": count("daemon.refused"),
        "jobs.appends": count("jobs.appends"),
        "jobs.append_busy_s": t.get("jobs.busy_s", 0.0),
        "http_api.posts": count("http_api.posts"),
        "http_api.overhead_s": (session.client_submit_s
                                - t.get("daemon.submit_busy_s", 0.0)),
        "workerpool.runs": count("workerpool.runs"),
        "workerpool.ipc_s": t.get("workerpool.ipc_s", 0.0),
        "coredump.fingerprint_busy_s": t.get("coredump.busy_s", 0.0),
    }


def per_seed(sessions: List[Session], field: str) -> Dict[int, float]:
    """The mean of ``field`` over each hash seed's sessions, so that
    every seed counts once however many sessions the run gave it."""
    by_seed: Dict[int, List[float]] = {}
    for session in sessions:
        by_seed.setdefault(session.hash_seed, []).append(
            getattr(session, field))
    return {seed: statistics.mean(values)
            for seed, values in by_seed.items()}


def e2e_metrics(sessions: List[Session], extra_setups: List[float]
                ) -> Dict[str, float]:
    """End-to-end metrics of an untraced run's sessions.

    ``setup_s`` is the median over the sessions' start-ups and
    ``extra_setups``.  ``reports_per_s`` is the geometric mean over the
    hash seeds of each seed's throughput: the typical rate of one
    daemon, whose hash seed is random in deployment.  Summed reports
    over summed time would be dominated by the slowest seed, whose one
    long drive varies most with the host: over three sets of ten runs
    that figure spread 0.25-0.31, the geometric mean 0.22 (README,
    "Measured noise")."""
    reports = per_seed(sessions, "reports")
    busy = per_seed(sessions, "busy")
    rates = [_ratio(reports[seed], busy[seed]) for seed in reports]
    attempted = sum(u.attempted for u in sessions)
    return {
        "setup_s": statistics.median(
            [s for u in sessions for s in u.setup] + extra_setups),
        "peak_rss_mb": max(u.peak_rss_mb for u in sessions),
        "reports_per_s": statistics.geometric_mean(rates)
        if min(rates) > 0 else 0.0,
        "bucket_accuracy": min(u.accuracy for u in sessions),
        "root_cause_share": 1.0 - max(u.fallback for u in sessions),
        "settled_share": _ratio(attempted - sum(u.failed for u in sessions),
                                attempted),
    }


class Workload:
    """Run-level set-up plus the session of work a run repeats."""

    def __init__(self, name: str, seed: int, size: Size, work: Path,
                 traced: bool):
        self.name, self.size, self.work, self.traced = name, size, work, \
            traced
        self.corpus = build_corpus(work / "corpus", size, seed)
        self.sessions_run = 0
        #: set-up samples taken outside the sessions
        self.setups: List[float] = []
        if name == "dup-storm":
            self.primed = prime_storm_cache(self.corpus, size, work)
            self.stream = storm_stream(self.corpus, size, seed)
            if not traced:
                self.setups = daemon_setups(work, self.primed[0], size,
                                            EXTRA_STORM_SETUPS)

    def hash_seeds(self) -> List[int]:
        """The hash seeds one sweep visits, in order."""
        if self.name == "dup-storm":
            return [STORM_HASH_SEED]
        return list(self.size.hash_seeds)

    def session(self, hash_seed: int) -> Session:
        self.sessions_run += 1
        work = self.work / f"session-{self.sessions_run}"
        work.mkdir()
        if self.name == "cold-triage":
            return cold_triage_session(self.corpus, self.size, work,
                                       self.traced, hash_seed)
        if self.name == "novel-intake":
            return novel_intake_session(self.corpus, self.size, work,
                                        self.traced, hash_seed)
        return dup_storm_session(self.corpus, self.size, work, self.traced,
                                 self.primed, self.stream)


def run_sessions(workload: Workload, seconds: float) -> List[Session]:
    """Sweep the hash seeds in order, one session each, then go on while
    time is left.

    An untraced run makes one whole sweep, then repeats the seed with
    the fewest sessions so far (the slowest first among equals) whose
    last session still fits in ``seconds``: the slowest seed, whose
    time varies most, gets the first extra sample.  A traced run makes
    exactly two sweeps, for the determinism check."""
    seeds = workload.hash_seeds()
    plan = seeds * (2 if workload.traced else 1)
    sessions: List[Session] = []
    last_wall: Dict[int, float] = {}
    started = time.perf_counter()
    while True:
        if len(sessions) < len(plan):
            seed = plan[len(sessions)]
        elif workload.traced:
            return sessions
        else:
            left = seconds - (time.perf_counter() - started)
            fitting = [s for s in seeds if last_wall[s] <= left]
            if not fitting:
                return sessions
            seed = min(fitting, key=lambda s: (
                sum(x.hash_seed == s for x in sessions), -last_wall[s]))
        session = workload.session(seed)
        sessions.append(session)
        last_wall[seed] = session.wall
        if not all(session.checks.values()):
            return sessions


def sweeps_of(sessions: List[Session], per_sweep: int) -> List[Session]:
    """Merge consecutive sessions into one traced session per sweep."""
    merged = []
    for first in range(0, len(sessions), per_sweep):
        group = sessions[first:first + per_sweep]
        merged.append(Session(
            wall=sum(u.wall for u in group),
            client_submit_s=sum(u.client_submit_s for u in group),
            probes=merge_probes([u.probes for u in group])))
    return merged


def _latency(name: str, samples: List[float]) -> dict:
    summary = latency_summary(samples)
    kind = LATENCY_OF[name]
    return {f"{kind}_p50_ms": summary["p50"],
            f"{kind}_tail_ms": summary["tail"],
            "tail_pct": summary["tail_pct"], "n": summary["n"]}


def _median_dict(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def _last_untraced(name: str, seed: int, size_name: str,
                   digest: str) -> Optional[dict]:
    """The newest untraced record of this workload on the same program
    source (``digest``), same seed first."""
    records = []
    for path in RUNS_DIR.glob(f"{name}-*.json"):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if doc.get("trace") == 0 and doc.get("size") == size_name \
                and doc.get("correct") \
                and doc["provenance"]["source_digest"] == digest:
            records.append(doc)
    if not records:
        return None
    records.sort(key=lambda d: (d["seed"] == seed, d["finished_at"]))
    return records[-1]


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size_name: str = "full") -> dict:
    """One benchmark run; returns {"result": ..., "report": ...}."""
    size = FULL if size_name == "full" else SMOKE
    host = HostWatch()
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = Workload(name, seed, size, work, traced)
        sessions = run_sessions(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks: Dict[str, bool] = {}
    for session in sessions:
        for key, ok in session.checks.items():
            checks[key] = checks.get(key, True) and ok
        checks["all_settled"] = checks.get("all_settled", True) \
            and session.failed == 0
    if name != "dup-storm":
        digests = {u.digest for u in sessions}
        checks["verdicts_match_across_hash_seeds"] = \
            None not in digests and len(digests) == 1
    latencies = [ms for u in sessions for ms in u.latencies_ms]
    report: dict = {
        "workload": name, "seed": seed, "size": size_name,
        "trace": int(traced), "hash_seeds": workload.hash_seeds(),
        "sessions": [{"hash_seed": u.hash_seed, "wall_s": round(u.wall, 4),
                      "busy_s": round(u.busy, 4), "reports": u.reports}
                     for u in sessions],
        "latency_ms": _latency(name, latencies),
        "verdict_digests": sorted({u.digest for u in sessions if u.digest}),
        "provenance": provenance(),
    }
    sweep_wall = sum(per_seed(sessions, "wall").values())
    if traced:
        layers = [layer_metrics(u)
                  for u in sweeps_of(sessions, len(workload.hash_seeds()))]
        first = layers[0]
        racy = RACY_COUNTS.get(name, ())
        checks["counts_deterministic"] = len(layers) == 2 and all(
            row[key] == first[key] for row in layers[1:]
            for key in DETERMINISTIC_COUNTS if key not in racy)
        checks["bypass_predictions"] = all(
            row[key] == 0 for row in layers for key in BYPASSED.get(name, ()))
        metrics = _median_dict(layers)
        units_of = PER_LAYER_UNITS
        report["counts"] = [{k: row[k] for k in DETERMINISTIC_COUNTS}
                            for row in layers]
        report["probe_processes"] = sum(u.probes["processes"]
                                        for u in sessions)
        untraced = _last_untraced(name, seed, size_name,
                                  report["provenance"]["source_digest"])
        report["trace_overhead"] = None if untraced is None else {
            "traced_sweep_s": round(sweep_wall, 4),
            "untraced_sweep_s": untraced["sweep_wall_s"],
            "untraced_seed": untraced["seed"],
            "overhead": round(sweep_wall / untraced["sweep_wall_s"] - 1, 4),
        }
    else:
        metrics = e2e_metrics(sessions, workload.setups)
        units_of = E2E_UNITS
    correct = all(checks.values())
    report["checks"] = checks
    report["host"] = host.summary()
    attempted = sum(u.attempted for u in sessions)
    failed = sum(u.failed for u in sessions)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units_of[key]}
                    for key in units_of} if correct else {},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    record = dict(report, correct=correct, finished_at=time.time(),
                  sweep_wall_s=sweep_wall)
    (RUNS_DIR / f"{name}-s{seed}-t{int(traced)}-"
                f"{time.time_ns()}.json").write_text(json.dumps(record))
    return {"result": result, "report": report}


def print_run(out: dict) -> None:
    result = out["result"]
    for key, metric in result["metrics"].items():
        print(f"{key:32s} {metric['value']:14.4f} {metric['unit']}")
    if result["metrics"] and not out["report"]["trace"]:
        latency = out["report"]["latency_ms"]
        for key, value in latency.items():
            if key.endswith("_ms"):
                print(f"{key:32s} {value:14.4f} ms (ungated; "
                      f"tail p{latency['tail_pct']} of {latency['n']})")
    failed = [k for k, ok in out["report"]["checks"].items() if not ok]
    if failed:
        print(f"FAILED CHECKS: {', '.join(failed)}")
    print("perfbench-report " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(result), flush=True)


def smoke() -> int:
    """Every workload at a tiny size, untraced then traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    must_check = {
        "cold-triage": {"exit_ok", "store_complete", "all_settled",
                        "verdicts_match_across_hash_seeds",
                        "labels_scored"},
        "dup-storm": {"exit_ok", "store_complete", "all_settled",
                      "warmup_settled", "storm_all_dedup", "daemon_idle",
                      "no_failures", "store_rows", "warm_hit_rate_1",
                      "buckets_match_primed_batch", "labels_scored"},
        "novel-intake": {"exit_ok", "store_complete", "all_settled",
                         "daemon_idle", "no_failures", "store_rows",
                         "verdicts_match_across_hash_seeds",
                         "labels_scored"},
    }
    problems = []
    for name in WORKLOADS:
        for trace in ("0", "1"):
            out = run_workload(name, seed=0, seconds=1,
                               traced=trace == "1", size_name="smoke")
            result, report = out["result"], out["report"]
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            checks = set(report["checks"])
            wanted = must_check[name] | (
                {"counts_deterministic", "bypass_predictions"}
                if trace == "1" else set())
            label = f"{name} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{label}: checks failed: " + ", ".join(
                    k for k, ok in report["checks"].items() if not ok))
            if emitted != expected[trace]:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json")
            if not wanted <= checks:
                problems.append(f"{label}: checks not run: "
                                f"{sorted(wanted - checks)}")
            latency = f"{LATENCY_OF[name]}_p50_ms"
            if trace == "0" and latency not in report["latency_ms"]:
                problems.append(f"{label}: no {latency} reported")
            print(f"smoke {label}: {len(emitted)} metrics, "
                  f"{len(checks)} checks, correct={result['correct']}",
                  flush=True)
    for problem in problems:
        print(f"SMOKE FAILURE {problem}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's own test (tiny sizes)")
    args = parser.parse_args(argv)
    # A stop request unwinds through the finally blocks that stop the
    # daemons and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    try:
        require_program()
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_run(out)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
