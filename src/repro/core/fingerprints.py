"""Canonical byte-exact fingerprints of what RES produces.

``suffix_fingerprint`` / ``behavioral_counters`` are the comparison
currency of every differential check in the system: the incremental-vs-
naive oracle, the P1 throughput benchmark, and (since PR 4) the
persistent triage result cache, which stores a digest of every suffix a
verdict was synthesized from so a warm hit is auditable against a cold
recompute.  They lived in :mod:`repro.fuzz.oracles` first; they moved
here so core code can fingerprint without importing the fuzz stack
(which itself imports core).
"""

from __future__ import annotations

import hashlib

#: stats fields that describe effort/timing rather than search behavior
NON_BEHAVIORAL_STATS = ("solver_calls", "solver_cache_hits",
                        "solver_unknown", "time_enumerate", "time_execute",
                        "time_replay")


def suffix_fingerprint(synthesized) -> tuple:
    """Canonical, byte-exact description of one emitted suffix."""
    suffix = synthesized.suffix
    return (
        tuple(
            (step.segment.tid, step.segment.function, step.segment.block,
             step.segment.lo, step.segment.hi, step.segment.kind.value,
             step.segment.depth, step.instr_count,
             tuple(sym.name for sym in step.input_syms),
             tuple((repr(expr), str(pc)) for expr, pc in step.outputs),
             tuple(sorted(step.write_addrs)),
             tuple(sorted(step.read_addrs)),
             tuple(step.lock_events),
             tuple(step.alloc_bases),
             tuple(step.free_bases),
             step.tainted_store_addr)
            for step in suffix.steps
        ),
        tuple(repr(c) for c in suffix.constraints),
    )


def suffix_digest(synthesized) -> str:
    """Short stable hash of :func:`suffix_fingerprint` (cache rows)."""
    canonical = repr(suffix_fingerprint(synthesized))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def behavioral_counters(stats) -> dict:
    return {key: value for key, value in vars(stats).items()
            if key not in NON_BEHAVIORAL_STATS}
