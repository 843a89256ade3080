"""Shared fixtures and reporting helpers for the experiment benchmarks.

Each ``test_e*``/``test_f*``/``test_t*`` module regenerates one
table/figure of the paper; the ``test_p*`` modules are the ``perf``-
marked macro benchmarks behind the ``make`` perf targets.  Measured
rows are printed with the ``[ROW]`` prefix so a run's output can be
read off directly.

Performance trajectory: every ``perf``-marked test is timed by an
autouse fixture that appends a row to ``BENCH_res.json`` at the repo
root, so the perf history is machine-readable.  Structured results
(the throughput benchmarks' before/after numbers) land in the same
file under their own keys via :func:`bench_record`.  Tier-1
deselects ``perf``, so it never rewrites that tracked file.
"""

from __future__ import annotations

import fcntl
import json
import time
from pathlib import Path

import pytest

from repro.ioutil import atomic_write_json

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_res.json"

#: cap on retained per-test timing rows (oldest dropped first)
_MAX_TIMINGS = 500


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: macro performance benchmark (throughput / speedup "
        "measurements recorded in BENCH_res.json)")


def emit_row(experiment: str, **fields) -> None:
    parts = " ".join(f"{key}={value}" for key, value in fields.items())
    print(f"\n[ROW] {experiment}: {parts}")


# ---------------------------------------------------------------------------
# BENCH_res.json bookkeeping
# ---------------------------------------------------------------------------

def _load_bench() -> dict:
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    return {}


def _save_bench(payload: dict) -> None:
    # Atomic replace: an interrupted write must never leave a truncated
    # file behind (a corrupt file would reset the whole history on the
    # next load).
    atomic_write_json(BENCH_PATH, payload, indent=2)


def _update_bench(mutate) -> None:
    """Locked read-modify-write so concurrent pytest runs (xdist
    workers, parallel terminals) never lose each other's rows."""
    lock_path = BENCH_PATH.parent / f".{BENCH_PATH.name}.lock"
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        payload = _load_bench()
        mutate(payload)
        _save_bench(payload)


def bench_record(section: str, entry: dict) -> None:
    """Append a structured result row under ``section``."""

    def mutate(payload: dict) -> None:
        payload.setdefault(section, []).append(
            dict(entry, recorded_at=round(time.time(), 1)))

    _update_bench(mutate)


def record_timing(payload: dict, nodeid: str, seconds: float,
                  recorded_at: float) -> None:
    """Append one per-test timing row, keeping only the newest
    ``_MAX_TIMINGS`` entries — the append-only log must stay bounded no
    matter how many runs accumulate (regression-tested in
    ``tests/test_bench_log.py``)."""
    timings = payload.setdefault("timings", [])
    timings.append({
        "test": nodeid,
        "seconds": round(seconds, 4),
        "recorded_at": round(recorded_at, 1),
    })
    del timings[:-_MAX_TIMINGS]


@pytest.fixture(autouse=True)
def perf_timer(request):
    """Time every ``perf``-marked test and append the wall clock to
    ``BENCH_res.json`` — the machine-readable perf trajectory."""
    if request.node.get_closest_marker("perf") is None:
        yield
        return
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    _update_bench(lambda payload: record_timing(
        payload, request.node.nodeid, elapsed, time.time()))
