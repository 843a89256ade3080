"""Shared plumbing of the benchmark: launching the program under a
recorded hash seed, the HTTP client, the daemon handle, host
provenance, percentiles and store checks.

Everything here runs in the benchmark's own process; the program runs
in child processes started from the repository root with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: scratch space for one run's daemons, stores and caches
WORK_ROOT = ROOT / ".perfbench-work"
#: one JSON record per run, read back for the tracing-overhead figure
RUNS_DIR = ROOT / ".perfbench-runs"

#: percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, broken launch)."""


# ---------------------------------------------------------------------------
# Launching the program
# ---------------------------------------------------------------------------

def require_program() -> None:
    if not (SRC / "repro" / "cli" / "main.py").is_file():
        raise BenchError(f"program source not found under {SRC}; run "
                         f"from the root of a checkout")


def program_env(hash_seed: int, probe_dir: Optional[str] = None) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("RES_", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    if probe_dir is not None:
        env["PERFBENCH_PROBE_DIR"] = probe_dir
    return env


def program_argv(args: Sequence[str], traced: bool) -> List[str]:
    """The public CLI, or the probe bootstrap that wraps it."""
    if traced:
        return [sys.executable, str(BENCH / "boot.py"), *args]
    return [sys.executable, "-m", "repro.cli.main", *args]


def run_program(args: Sequence[str], hash_seed: int,
                probe_dir: Optional[str], log_path: Path,
                timeout: float = 170.0) -> Tuple[int, float, float, str]:
    """Run one CLI command to completion.

    Returns (exit code, wall seconds, peak RSS in MB, output).  The
    peak comes from ``wait4`` on this child, so it is the child's own
    high-water mark, not the running maximum over every child this
    benchmark ever reaped."""
    with open(log_path, "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(program_argv(args, probe_dir is not None),
                                cwd=str(ROOT),
                                env=program_env(hash_seed, probe_dir),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            log_path.read_text())


def vm_hwm_mb(pid: int) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants, from ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(parents.get(current, []))
    return tree


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

class HttpClient:
    """One request per connection, as the program's own client does."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=60)
        try:
            headers = {"Connection": "close", "Accept": "application/json"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError:
            payload = {"text": data.decode("utf-8", "replace")}
        return response.status, payload

    def text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()


def parse_metrics(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, __, value = line.partition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


class Daemon:
    """A ``res serve`` child on an ephemeral port, with its spool, store
    and log under ``directory``."""

    def __init__(self, directory: Path, args: Sequence[str],
                 hash_seed: int, probe_dir: Optional[str]):
        directory.mkdir(parents=True)
        self.store_path = directory / "store.json"
        self.log_path = directory / "serve.log"
        self._log = open(self.log_path, "w")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            program_argv(["serve", "--port", "0", "--trace-sample", "0",
                          "--spool", str(directory / "spool"),
                          "--store", str(self.store_path), *args],
                         probe_dir is not None),
            cwd=str(ROOT), env=program_env(hash_seed, probe_dir),
            stdout=self._log, stderr=subprocess.STDOUT)
        self.client: Optional[HttpClient] = None

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers ok; returns launch-to-healthy
        seconds (the daemon's set-up time)."""
        deadline = self.launched + timeout
        while self.client is None:
            text = self.log_path.read_text()
            if "listening on http://" in text:
                hostport = text.split("http://", 1)[1].split()[0]
                host, port = hostport.rsplit(":", 1)
                self.client = HttpClient(host, int(port))
            elif self.proc.poll() is not None \
                    or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"daemon did not start: {text[-500:]!r}")
            else:
                time.sleep(0.002)
        while time.perf_counter() < deadline:
            try:
                status, payload = self.client.request("GET", "/healthz")
            except OSError:
                status, payload = 0, {}
            if status == 200 and payload.get("status") == "ok":
                return time.perf_counter() - self.launched
            time.sleep(0.002)
        self.stop()
        raise BenchError("daemon never became healthy")

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the daemon and its forked workers."""
        return sum(vm_hwm_mb(pid) for pid in process_tree(self.proc.pid))

    def shutdown(self, timeout: float = 60.0) -> int:
        """Drain and stop; returns the exit code."""
        try:
            self.client.request("POST", "/shutdown", b'{"drain": true}')
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("daemon did not stop after /shutdown")
        finally:
            self._log.close()
        return self.proc.returncode

    def stop(self) -> None:
        """Last resort: kill the daemon and every worker it forked."""
        if self.proc.poll() is None:
            for pid in reversed(process_tree(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait(timeout=10)
        self._log.close()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    index = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def latency_summary(samples: Sequence[float]) -> dict:
    """Median and the highest ladder percentile with at least ten
    samples beyond it."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None}
    tail_pct = next((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10),
                    None)
    return {"n": n, "p50": statistics.median(values),
            "tail": nearest_rank(values, tail_pct) if tail_pct else
            values[-1],
            "tail_pct": tail_pct}


# ---------------------------------------------------------------------------
# Store checks
# ---------------------------------------------------------------------------

def pair_accuracy(rows: Sequence[dict], labels: Dict[str, str]) -> float:
    """Rand index of the stored buckets against the labels, over every
    labeled row: the share of row pairs where "same bucket" equals
    "same true cause".  Computed from the contingency table."""
    table: Dict[Tuple[str, str], int] = {}
    for row in rows:
        label = labels.get(row["report_id"])
        if label is not None:
            key = (row["bucket"], label)
            table[key] = table.get(key, 0) + 1
    n = sum(table.values())
    if n < 2:
        return 1.0

    def pairs(k: int) -> int:
        return k * (k - 1) // 2

    by_bucket: Dict[str, int] = {}
    by_label: Dict[str, int] = {}
    for (bucket, label), count in table.items():
        by_bucket[bucket] = by_bucket.get(bucket, 0) + count
        by_label[label] = by_label.get(label, 0) + count
    both = sum(pairs(c) for c in table.values())
    same_bucket = sum(pairs(c) for c in by_bucket.values())
    same_label = sum(pairs(c) for c in by_label.values())
    total = pairs(n)
    disagree = (same_bucket - both) + (same_label - both)
    return (total - disagree) / total


def fallback_share(rows: Sequence[dict]) -> float:
    return sum(1 for row in rows if row.get("used_fallback")) / len(rows) \
        if rows else 0.0


def verdict_digest(payload: dict, canonical: bool) -> str:
    """Digest of the store's ``verdict_view``.  ``canonical`` drops what
    arrival order decides when several clients submit at once (row
    order, which duplicate became the representative) and keeps every
    per-report verdict."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.triage_service import verdict_view

    view = verdict_view(payload)
    if canonical:
        rows = [{k: v for k, v in row.items() if k != "dedup_of"}
                for row in view["results"]]
        view["results"] = sorted(rows, key=lambda row: row["report_id"])
        view["buckets"] = {k: sorted(v) for k, v in view["buckets"].items()}
        for family in (view.get("bucketing") or {}).get(
                "hierarchy", {}).values():
            family["leaves"] = {k: sorted(v)
                                for k, v in family.get("leaves", {}).items()}
    text = json.dumps(view, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Probe tallies
# ---------------------------------------------------------------------------

def merge_probes(parts: Sequence[dict]) -> dict:
    """Sum probe tallies: one per process, or already-merged ones."""
    total = {"counts": {}, "times": {}, "samples": {}, "processes": 0}
    for part in parts:
        total["processes"] += part.get("processes", 1)
        for section in ("counts", "times"):
            for key, value in part[section].items():
                total[section][key] = total[section].get(key, 0) + value
        for key, values in part["samples"].items():
            total["samples"].setdefault(key, []).extend(values)
    return total


def read_probes(directory) -> dict:
    """Sum the per-process tallies the probes wrote to ``directory``."""
    return merge_probes([json.loads(path.read_text())
                         for path in sorted(Path(directory).glob("*.json"))])


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cpu_times() -> List[int]:
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def reference_loop_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: the host's
    speed for interpreted code, independent of the program."""
    samples = []
    for __ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return round(statistics.median(samples), 2)


class HostWatch:
    """Host contention over a run: CPU steal share, load average, and
    the reference loop timed at the start and the end."""

    def __init__(self) -> None:
        self.reference_ms = [reference_loop_ms()]
        self.start = _cpu_times()

    def summary(self) -> dict:
        end = _cpu_times()
        delta = [b - a for a, b in zip(self.start, end)]
        total = sum(delta[:8]) or 1  # guest time is already in user
        steal = delta[7] if len(delta) > 7 else 0
        return {"steal_share": round(steal / total, 4),
                "loadavg": [float(x) for x in
                            Path("/proc/loadavg").read_text().split()[:3]],
                "reference_loop_ms": self.reference_ms +
                [reference_loop_ms()]}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    return {"git_sha": git_sha(), "source_digest": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}
