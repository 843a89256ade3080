"""The workloads.  Each is a set-up step run once per benchmark run
plus a *session* of work the run repeats: one program process or one
daemon.  A session returns its end-to-end figures, the output checks it
made and, when traced, the per-layer tallies.

* ``novel-intake`` — the labeled corpus submitted to a cold
  ``res serve`` by two closed-loop clients under one hash seed: real
  drives on forked workers plus cache writes and journal settles.
* ``dup-storm`` — a warm ``res serve`` answering a Zipf-skewed stream
  of duplicates from one closed-loop client: intake, dedup, journal
  and the O(history) store flush; the solver never runs.
* ``cold-triage`` — batch ``res triage --jobs 1`` of the labeled
  corpus with no result cache under one hash seed: the cold RES drive.
  Run traced, it confirms that the batch path bypasses HTTP and the
  journal; it is not one of the gated workloads (see README.md).
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (SRC, BenchError, Daemon, HttpClient, fallback_share,
                     pair_accuracy, parse_metrics, read_probes, run_program,
                     verdict_digest)

#: every workload whose path reaches the solver runs under each of
#: these hash seeds, in fresh processes (solver work depends on them)
HASH_SEEDS = (0, 1, 2, 3)
#: the one hash seed of the warm daemon in ``dup-storm``
STORM_HASH_SEED = 0
#: daemon job states that are final
SETTLED = ("done", "failed", "quarantined")


@dataclass(frozen=True)
class Size:
    """Input size of a run.  ``FULL`` is the ROADMAP corpus."""

    fuzz_seeds: Tuple[int, int]  # first, count
    duplicates: int
    hash_seeds: Tuple[int, ...]
    storm_reports: int
    max_depth: int = 8
    max_nodes: int = 300
    workers: int = 2
    clients: int = 2
    poll_s: float = 0.01
    zipf_s: float = 1.1


FULL = Size(fuzz_seeds=(9000, 16), duplicates=4, hash_seeds=HASH_SEEDS,
            storm_reports=2000)
SMOKE = Size(fuzz_seeds=(9000, 3), duplicates=2, hash_seeds=HASH_SEEDS[:2],
             storm_reports=40)


@dataclass
class Corpus:
    """The labeled corpus as the benchmark submits it."""

    directory: Path
    #: (report_id, program key, label, coredump JSON bytes) in order
    entries: List[Tuple[str, str, Optional[str], bytes]]
    programs: Dict[str, bytes]  # key -> program JSON object bytes

    @property
    def labels(self) -> Dict[str, Optional[str]]:
        return {rid: label for rid, __, label, __ in self.entries}

    def body(self, report_id: str, program: str, label: Optional[str],
             core: bytes) -> bytes:
        return b"".join((b'{"program": ', self.programs[program],
                         b', "coredump": ', core,
                         b', "report_id": ', json.dumps(report_id).encode(),
                         b', "true_cause": ', json.dumps(label).encode(),
                         b"}"))

    def unique(self) -> List[Tuple[str, Optional[str], bytes]]:
        """One (program, label, core) per distinct crash, in order."""
        seen, out = set(), []
        for __, program, label, core in self.entries:
            if (program, core) not in seen:
                seen.add((program, core))
                out.append((program, label, core))
        return out


def build_corpus(directory: Path, size: Size, seed: int) -> Corpus:
    """The labeled fuzz corpus, saved as a ``--corpus-dir``.

    Each crash arrives first in program order; then come all the
    repeats, in an order drawn from the seed.  In a closed loop the
    order of novel crashes decides which drives overlap and which
    clients block, so it is fixed; the seed varies the repeats."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.fuzz.triage_corpus import build_labeled_corpus

    first, count = size.fuzz_seeds
    corpus = build_labeled_corpus(range(first, first + count),
                                  duplicates=size.duplicates)
    novel, repeats, seen = [], [], set()
    for entry in corpus.entries:
        (repeats if entry.program_key in seen else novel).append(entry)
        seen.add(entry.program_key)
    random.Random(seed).shuffle(repeats)
    corpus.entries[:] = novel + repeats
    corpus.save(str(directory))
    manifest = json.loads((directory / "manifest.json").read_text())
    programs = {
        key: json.dumps({"key": key, "name": meta["name"],
                         "source": (directory / meta["file"]).read_text()}
                        ).encode()
        for key, meta in manifest["programs"].items()}
    entries = [(item["report_id"], item["program"], item["true_cause"],
                (directory / item["core"]).read_bytes().strip())
               for item in manifest["entries"]]
    return Corpus(directory=directory, entries=entries, programs=programs)


@dataclass
class Session:
    """What one session of work measured and checked."""

    wall: float = 0.0
    setup: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    reports: int = 0
    busy: float = 0.0  # seconds the reports/s figure divides by
    latencies_ms: List[float] = field(default_factory=list)
    accuracy: float = 0.0
    fallback: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    probes: Optional[dict] = None
    client_submit_s: float = 0.0
    hash_seed: int = STORM_HASH_SEED
    #: digest of the store's verdict view (solver workloads)
    digest: Optional[str] = None

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def _triage_args(size: Size) -> List[str]:
    return ["--max-depth", str(size.max_depth),
            "--max-nodes", str(size.max_nodes)]


# ---------------------------------------------------------------------------
# cold-triage
# ---------------------------------------------------------------------------

def cold_triage_session(corpus: Corpus, size: Size, work: Path,
                        traced: bool, hash_seed: int) -> Session:
    """One ``res triage --jobs 1`` process under ``hash_seed``."""
    session = Session(hash_seed=hash_seed)
    started = time.perf_counter()
    store = work / "store.json"
    probe_dir = _probe_dir(work, "triage") if traced else None
    code, wall, rss, __ = run_program(
        ["triage", "--corpus-dir", str(corpus.directory),
         "--jobs", "1", "--store", str(store), *_triage_args(size)],
        hash_seed, probe_dir, work / "triage.log")
    session.check("exit_ok", code == 0)
    session.attempted = len(corpus.entries)
    if code != 0 or not store.exists():
        session.failed = len(corpus.entries)
        session.check("store_complete", False)
    else:
        payload = json.loads(store.read_text())
        elapsed = payload["timing"]["elapsed"]
        rows = payload["results"]
        session.check("store_complete", payload["complete"]
                   and not payload["interrupted"])
        settled = {row["report_id"] for row in rows}
        session.check("all_settled", settled == set(corpus.labels))
        session.failed = len(set(corpus.labels) - settled)
        session.setup.append(wall - elapsed)
        session.peak_rss_mb = rss
        session.reports = len(rows)
        session.busy = elapsed
        session.latencies_ms.extend(row["seconds"] * 1000.0 for row in rows
                                 if row["dedup_of"] is None)
        session.digest = verdict_digest(payload, canonical=False)
        _score(session, rows, corpus.labels)
    if probe_dir is not None:
        session.probes = read_probes(probe_dir)
    session.wall = time.perf_counter() - started
    return session


# ---------------------------------------------------------------------------
# daemon workloads
# ---------------------------------------------------------------------------

def _probe_dir(work: Path, name: str) -> str:
    path = work / f"probes-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def _score(session: Session, rows: List[dict],
           labels: Dict[str, Optional[str]]) -> None:
    """Bucket accuracy and fallback share over distinct crashes (one
    row per fingerprint): what triage decided, independent of how often
    the traffic repeated each crash.  Duplicates are checked against
    their representative elsewhere."""
    distinct = {}
    for row in rows:
        distinct.setdefault(row["fingerprint"], row)
    crashes = list(distinct.values())
    session.check("labels_scored",
               sum(1 for row in crashes if labels.get(row["report_id"])) >= 2)
    session.accuracy = pair_accuracy(crashes, labels)
    session.fallback = fallback_share(crashes)


def _wait_settled(client: HttpClient, job_id: str, poll_s: float,
                  timeout: float = 150.0) -> dict:
    deadline = time.perf_counter() + timeout
    while True:
        status, payload = client.request("GET", f"/jobs/{job_id}")
        if status == 200 and payload.get("state") in SETTLED:
            return payload
        if time.perf_counter() > deadline:
            return {"state": "unsettled"}
        time.sleep(poll_s)


def _finish_daemon(session: Session, daemon: Daemon, expect_rows: int
                   ) -> Tuple[Optional[dict], Dict[str, float]]:
    """Shared daemon epilogue: metrics, memory, drained shutdown and
    the store checks.  Returns the store document and ``/metrics``."""
    metrics = parse_metrics(daemon.client.text("/metrics"))
    status, health = daemon.client.request("GET", "/healthz")
    session.check("daemon_idle", status == 200
               and health.get("queue_depth") == 0
               and health.get("in_flight") == 0)
    session.check("no_failures", metrics.get("res_intake_failed_total") == 0
               and metrics.get("res_intake_quarantined_total") == 0
               and metrics.get("res_intake_rejected_total") == 0)
    session.peak_rss_mb = max(session.peak_rss_mb, daemon.peak_rss_mb())
    session.check("exit_ok", daemon.shutdown() == 0)
    if not daemon.store_path.exists():
        session.check("store_complete", False)
        return None, metrics
    payload = json.loads(daemon.store_path.read_text())
    session.check("store_complete", payload["complete"]
               and not payload["interrupted"])
    session.check("store_rows", len(payload["results"]) == expect_rows)
    return payload, metrics


def _start_daemon(work: Path, name: str, hash_seed: int, cache: Path,
                  size: Size, traced: bool) -> Tuple[Daemon, Optional[str]]:
    probe_dir = _probe_dir(work, name) if traced else None
    daemon = Daemon(work / name,
                    ["--cache-dir", str(cache),
                     "--workers", str(size.workers), *_triage_args(size)],
                    hash_seed, probe_dir)
    return daemon, probe_dir


def _submit(client: HttpClient, body: bytes) -> Tuple[int, dict, float]:
    started = time.perf_counter()
    try:
        status, payload = client.request("POST", "/jobs", body)
    except OSError as exc:
        status, payload = 0, {"error": str(exc)}
    return status, payload, time.perf_counter() - started


def novel_intake_session(corpus: Corpus, size: Size, work: Path,
                         traced: bool, hash_seed: int) -> Session:
    """The whole corpus sent to one cold daemon under ``hash_seed``."""
    session = Session(hash_seed=hash_seed)
    started = time.perf_counter()
    cache = work / "cache"
    cache.mkdir()
    daemon, probe_dir = _start_daemon(work, "novel", hash_seed, cache,
                                      size, traced)
    try:
        session.setup.append(daemon.wait_healthy())
        wall, session.client_submit_s, session.failed = _closed_loop(
            session, daemon.client, corpus, size)
        session.attempted = len(corpus.entries)
        session.reports = len(corpus.entries) - session.failed
        session.busy = wall
        payload, __ = _finish_daemon(session, daemon, len(corpus.entries))
    finally:
        daemon.stop()
    if payload is not None:
        session.digest = verdict_digest(payload, canonical=True)
        _score(session, payload["results"], corpus.labels)
    if probe_dir is not None:
        session.probes = read_probes(probe_dir)
    session.wall = time.perf_counter() - started
    return session


def _closed_loop(session: Session, client: HttpClient, corpus: Corpus,
                 size: Size) -> Tuple[float, float, int]:
    """``size.clients`` clients, each submitting the next report and
    waiting for its verdict before the next.  Verdict latency runs from
    the client's send to the daemon's settle, for novel crashes only:
    how long a duplicate waits depends on which drive it raced.
    Returns (wall seconds from first submit to last verdict, summed
    submit round trips, reports not settled done)."""
    lock = threading.Lock()
    cursor = iter(corpus.entries)
    submit_s = [0.0]
    failed = [0]
    latencies: List[float] = []

    def client_loop() -> None:
        while True:
            with lock:
                entry = next(cursor, None)
            if entry is None:
                return
            report_id, program, label, core = entry
            sent = time.time()
            status, payload, ack = _submit(
                client, corpus.body(report_id, program, label, core))
            job = payload
            if status == 202:
                job = _wait_settled(client, payload["job_id"], size.poll_s)
            # A 202 neither attached to a pending drive nor answered
            # from history is a crash the daemon has not seen: a drive.
            novel = status == 202 and "attached_to" not in payload
            with lock:
                submit_s[0] += ack
                if status not in (200, 202) or job.get("state") != "done":
                    failed[0] += 1
                elif novel:
                    # The verdict exists from the daemon's settle
                    # instant (same host clock), so poll spacing does
                    # not quantize the latency.
                    settled = job["submitted_at"] + job["latency_seconds"]
                    latencies.append((settled - sent) * 1000.0)

    threads = [threading.Thread(target=client_loop)
               for __ in range(size.clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    session.latencies_ms.extend(latencies)
    return wall, submit_s[0], failed[0]


def prime_storm_cache(corpus: Corpus, size: Size, work: Path
                      ) -> Tuple[Path, Dict[str, str]]:
    """Set-up of ``dup-storm``: an untimed batch run fills the result
    cache.  Returns the cache and fingerprint -> bucket of its store."""
    cache = work / "primed-cache"
    store = work / "primed-store.json"
    code, __, __, out = run_program(
        ["triage", "--corpus-dir", str(corpus.directory), "--jobs", "1",
         "--cache-dir", str(cache), "--store", str(store),
         *_triage_args(size)],
        STORM_HASH_SEED, None, work / "prime.log")
    if code != 0:
        raise BenchError(f"cache priming failed:\n{out[-2000:]}")
    rows = json.loads(store.read_text())["results"]
    return cache, {row["fingerprint"]: row["bucket"] for row in rows}


def daemon_setups(work: Path, cache: Path, size: Size, count: int
                  ) -> List[float]:
    """Set-up time of ``count`` extra warm daemon launches (launch to
    healthy, then a drained stop), so a run's ``setup_s`` is a median
    of several."""
    samples = []
    for index in range(count):
        daemon, __ = _start_daemon(work, f"setup-{index}", STORM_HASH_SEED,
                                   cache, size, traced=False)
        try:
            samples.append(daemon.wait_healthy())
            if daemon.shutdown() != 0:
                raise BenchError("daemon exited non-zero after /shutdown")
        finally:
            daemon.stop()
    return samples


def storm_stream(corpus: Corpus, size: Size, seed: int
                 ) -> List[Tuple[str, Optional[str], bytes]]:
    """Zipf-skewed duplicates, weight 1/rank^s.  Popularity ranks
    follow the program order, so every seed draws from the same mix;
    the seed picks the sequence."""
    crashes = sorted(corpus.unique(), key=lambda crash: crash[0])
    weights = [1.0 / (rank + 1) ** size.zipf_s
               for rank in range(len(crashes))]
    return random.Random(seed).choices(crashes, weights=weights,
                                       k=size.storm_reports)


def dup_storm_session(corpus: Corpus, size: Size, work: Path,
                      traced: bool, primed: Tuple[Path, Dict[str, str]],
                      stream: List[Tuple[str, Optional[str], bytes]]
                      ) -> Session:
    """One warm daemon on a copy of the primed cache, answering
    ``stream`` from one closed-loop client."""
    session = Session()
    started = time.perf_counter()
    cache = work / "cache"
    shutil.copytree(primed[0], cache)
    daemon, probe_dir = _start_daemon(work, "storm", STORM_HASH_SEED,
                                      cache, size, traced)
    labels: Dict[str, Optional[str]] = {}
    try:
        session.setup.append(daemon.wait_healthy())
        client = daemon.client
        # Warm-up (untimed), so every storm submission meets a crash
        # known to instant dedup.  A job reads "done" before its
        # verdict is published to dedup (that waits for the journal
        # fsync), so each crash goes twice: the second copy settles
        # only once the first is published.
        unique = corpus.unique()
        for n, (program, label, core) in enumerate(unique + unique):
            labels[f"warm-{n}"] = label
            status, payload, ack = _submit(
                client, corpus.body(f"warm-{n}", program, label, core))
            session.client_submit_s += ack
            state = payload.get("state")
            if status == 202:
                state = _wait_settled(client, payload["job_id"],
                                      size.poll_s).get("state")
            session.check("warmup_settled", state == "done")
        storm_started = time.perf_counter()
        dedup = 0
        for n, (program, label, core) in enumerate(stream):
            labels[f"storm-{n}"] = label
            status, payload, ack = _submit(
                client, corpus.body(f"storm-{n}", program, label, core))
            session.client_submit_s += ack
            session.attempted += 1
            if status == 200 and payload.get("state") == "done":
                session.latencies_ms.append(ack * 1000.0)
                dedup += payload.get("dedup_of") is not None
            else:
                session.failed += 1
        wall = time.perf_counter() - storm_started
        session.check("storm_all_dedup", dedup == len(stream))
        session.reports = len(stream) - session.failed
        session.busy = wall
        payload, metrics = _finish_daemon(
            session, daemon, 2 * len(unique) + len(stream))
    finally:
        daemon.stop()
    session.check("warm_hit_rate_1",
               metrics.get("res_intake_warm_hit_rate") == 1.0)
    if payload is not None:
        rows = payload["results"]
        buckets = primed[1]
        session.check("buckets_match_primed_batch",
                   all(buckets.get(row["fingerprint"]) == row["bucket"]
                       for row in rows))
        _score(session, rows, labels)
    if probe_dir is not None:
        session.probes = read_probes(probe_dir)
    session.wall = time.perf_counter() - started
    return session
