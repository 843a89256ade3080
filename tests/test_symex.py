"""Expression, interval, and solver tests — including hypothesis
property tests tying symbolic semantics to the concrete VM's."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.ir.instructions import BINARY_OPS, COMPARE_OPS, to_signed, to_unsigned
from repro.symex import (
    BinExpr,
    Const,
    IntSet,
    SolveStatus,
    Solver,
    Sym,
    bin_expr,
    cmp_domain,
    evaluate,
    free_syms,
    negate_bool,
    substitute,
    truth_of,
)

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
small = st.integers(min_value=0, max_value=300)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@given(words, words, st.sampled_from(list(BINARY_OPS) + list(COMPARE_OPS)))
@settings(max_examples=300)
def test_folding_matches_evaluation(a, b, op):
    folded = bin_expr(op, Const(a), Const(b))
    direct = evaluate(BinExpr(op, Const(a), Const(b)), {})
    if direct is None:  # division by zero stays symbolic
        assert isinstance(folded, BinExpr)
    else:
        assert isinstance(folded, Const)
        assert folded.value == direct


@given(words, words, st.sampled_from(list(BINARY_OPS) + list(COMPARE_OPS)))
@settings(max_examples=300)
def test_simplifier_preserves_semantics_on_symbols(a, b, op):
    x, y = Sym("x"), Sym("y")
    expr = bin_expr(op, bin_expr("add", x, Const(a)), y)
    model = {"x": b, "y": a}
    simplified_val = evaluate(expr, model)
    raw_val = evaluate(BinExpr(op, BinExpr("add", x, Const(a)), y), model)
    assert simplified_val == raw_val


@given(words)
def test_negate_bool_flips(v):
    x = Sym("x")
    cond = bin_expr("ult", x, Const(500))
    neg = negate_bool(cond)
    model = {"x": v}
    assert evaluate(cond, model) != evaluate(neg, model)


def test_identities():
    x = Sym("x")
    assert bin_expr("add", x, Const(0)) is x
    assert bin_expr("mul", x, Const(1)) is x
    assert bin_expr("mul", x, Const(0)) == Const(0)
    assert bin_expr("sub", x, x) == Const(0)
    assert bin_expr("xor", x, x) == Const(0)
    assert bin_expr("eq", x, x) == Const(1)
    assert bin_expr("ne", x, x) == Const(0)


def test_constant_chain_merging():
    x = Sym("x")
    expr = bin_expr("add", bin_expr("add", x, Const(3)), Const(4))
    assert expr == bin_expr("add", x, Const(7))
    # sub normalizes into add
    expr2 = bin_expr("sub", bin_expr("add", x, Const(10)), Const(4))
    assert expr2 == bin_expr("add", x, Const(6))


def test_boolean_cmp_collapse():
    x = Sym("x")
    boolish = bin_expr("ult", x, Const(4))
    assert bin_expr("ne", boolish, Const(0)) is boolish
    assert bin_expr("eq", boolish, Const(0)) == negate_bool(boolish)
    assert bin_expr("eq", boolish, Const(77)) == Const(0)


def test_free_syms_and_substitute():
    x, y = Sym("x"), Sym("y")
    expr = bin_expr("add", x, bin_expr("mul", y, Const(3)))
    assert free_syms(expr) == {"x", "y"}
    closed = substitute(expr, {"x": Const(1), "y": Const(2)})
    assert closed == Const(7)


def test_truth_of():
    assert truth_of(Const(5)) == Const(1)
    assert truth_of(Const(0)) == Const(0)
    x = Sym("x")
    assert truth_of(bin_expr("eq", x, Const(1))) == bin_expr("eq", x, Const(1))


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@given(small, small, small)
def test_intset_membership(lo, hi, v):
    s = IntSet.of(lo, hi)
    assert (v in s) == (lo <= v <= hi)


@given(small, small, small, small)
def test_intset_intersection(a1, a2, b1, b2):
    s1 = IntSet.of(min(a1, a2), max(a1, a2))
    s2 = IntSet.of(min(b1, b2), max(b1, b2))
    inter = s1.intersect(s2)
    for probe in {a1, a2, b1, b2, (a1 + b1) // 2}:
        assert (probe in inter) == (probe in s1 and probe in s2)


@given(small, st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
@settings(max_examples=200)
def test_cmp_domain_matches_concrete_semantics(v, bound):
    from repro.symex.expr import apply_op

    bound_u = to_unsigned(bound)
    for op in COMPARE_OPS:
        dom = cmp_domain(op, bound_u)
        concrete = apply_op(op, v, bound_u)
        assert (v in dom) == bool(concrete), (op, v, bound)


@given(small, small, st.integers(min_value=-500, max_value=500))
def test_intset_shift_is_exact(lo, hi, delta):
    s = IntSet.of(min(lo, hi), max(lo, hi))
    shifted = s.shift(delta)
    for probe in (lo, hi, (lo + hi) // 2):
        assert to_unsigned(probe + delta) in shifted


def test_intset_remove_point_and_size():
    s = IntSet.of(0, 10).remove_point(5)
    assert 5 not in s and 4 in s and 6 in s
    assert s.size() == 10


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

def solve(constraints):
    return Solver().solve(constraints)


def test_binding_chain():
    x, y = Sym("x"), Sym("y")
    r = solve([bin_expr("eq", bin_expr("add", x, Const(2)), y),
               bin_expr("eq", y, Const(9))])
    assert r.is_sat and r.model["x"] == 7


def test_contradiction_is_unsat():
    x = Sym("x")
    r = solve([bin_expr("eq", x, Const(1)), bin_expr("eq", x, Const(2))])
    assert r.is_unsat


def test_interval_refinement():
    x = Sym("x")
    r = solve([bin_expr("ugt", x, Const(10)), bin_expr("ult", x, Const(12))])
    assert r.is_sat and r.model["x"] == 11


def test_empty_domain_unsat():
    x = Sym("x")
    r = solve([bin_expr("ugt", x, Const(10)), bin_expr("ult", x, Const(5))])
    assert r.is_unsat


def test_signed_constraint():
    x = Sym("x")
    r = solve([bin_expr("slt", x, Const(0))])
    assert r.is_sat
    assert to_signed(r.model["x"]) < 0


def test_odd_multiplier_inversion():
    x = Sym("x")
    r = solve([bin_expr("eq", bin_expr("mul", x, Const(7)), Const(21))])
    assert r.is_sat and r.model["x"] == 3


def test_wraparound_solution():
    x = Sym("x")
    r = solve([bin_expr("eq", bin_expr("add", x, Const(5)), Const(2))])
    assert r.is_sat
    assert to_unsigned(r.model["x"] + 5) == 2


def test_exhaustive_unsat_on_small_domain():
    x = Sym("x")
    r = solve([bin_expr("ule", x, Const(3)),
               bin_expr("eq", bin_expr("add", x, x), Const(9))])
    assert r.is_unsat


def test_search_over_two_symbols():
    x, y = Sym("x"), Sym("y")
    r = solve([
        bin_expr("ule", x, Const(10)),
        bin_expr("ule", y, Const(10)),
        bin_expr("eq", bin_expr("add", x, y), Const(12)),
        bin_expr("eq", bin_expr("mul", x, Const(2)), y),
    ])
    assert r.is_sat
    assert r.model["x"] + r.model["y"] == 12
    assert r.model["y"] == 2 * r.model["x"]
    # and the 3x = 13 variant has no integer solution: provably UNSAT
    r2 = solve([
        bin_expr("ule", x, Const(10)),
        bin_expr("ule", y, Const(10)),
        bin_expr("eq", bin_expr("add", x, y), Const(13)),
        bin_expr("eq", bin_expr("mul", x, Const(2)), y),
    ])
    assert r2.is_unsat


def test_unique_value():
    x = Sym("x")
    solver = Solver()
    value, unique = solver.unique_value(
        [bin_expr("eq", bin_expr("xor", x, Const(5)), Const(1))], x)
    assert value == 4 and unique
    value, unique = solver.unique_value([bin_expr("ule", x, Const(2))], x)
    assert not unique


def test_feasible_values():
    x = Sym("x")
    values = Solver().feasible_values([bin_expr("ule", x, Const(2))], x,
                                      limit=5)
    assert sorted(values) == [0, 1, 2]


@given(st.lists(st.tuples(small, small), min_size=1, max_size=4))
@settings(max_examples=100)
def test_sat_models_actually_satisfy(pairs):
    """Soundness: whenever the solver says SAT, its model checks out."""
    x = Sym("x")
    constraints = []
    for a, b in pairs:
        constraints.append(bin_expr("ne", bin_expr("add", x, Const(a)),
                                    Const(b)))
    result = solve(constraints)
    if result.is_sat:
        for c in constraints:
            assert evaluate(truth_of(c), result.model) == 1


@given(small)
def test_point_constraint_roundtrip(v):
    x = Sym("x")
    r = solve([bin_expr("eq", x, Const(v))])
    assert r.is_sat and r.model["x"] == v


# ---------------------------------------------------------------------------
# Incremental solving + verdict cache soundness
# ---------------------------------------------------------------------------

def _decidable_constraints(draw_values):
    """Small constraint set over x/y the solver decides exactly
    (bindings, domains, and linear search — no UNKNOWN outcomes), so a
    fresh solve and an incremental solve must agree verdict-for-verdict.
    """
    x, y = Sym("x"), Sym("y")
    shapes = [
        lambda a, b: bin_expr("eq", bin_expr("add", x, Const(a)), Const(b)),
        lambda a, b: bin_expr("eq", bin_expr("xor", x, Const(a)), Const(b)),
        lambda a, b: bin_expr("ult", x, Const(a + 1)),
        lambda a, b: bin_expr("ugt", x, Const(a)),
        lambda a, b: bin_expr("eq", bin_expr("add", x, y), Const(a)),
        lambda a, b: bin_expr("eq", y, Const(b)),
        lambda a, b: bin_expr("ne", x, Const(a)),
    ]
    return [shapes[i % len(shapes)](a, b) for i, a, b in draw_values]


_TRIPLES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), small, small),
    min_size=1, max_size=6)


@given(_TRIPLES, st.integers(min_value=0, max_value=6))
@settings(max_examples=120, deadline=None)
def test_incremental_solve_agrees_with_fresh(triples, split):
    """Incremental (context + delta) and uncached solving of the same
    conjunction must never contradict each other: both verdicts are
    *proofs* when they are SAT or UNSAT, so SAT⟷UNSAT disagreement is a
    soundness bug (UNKNOWN may differ — propagation order affects only
    completeness).  Cached re-asks must repeat the first verdict
    exactly, and SAT models must genuinely satisfy the conjunction."""
    constraints = _decidable_constraints(triples)
    split = min(split, len(constraints))
    fresh = Solver().solve(constraints)

    shared = Solver()
    ctx = shared.context_for(constraints[:split])
    first, child = shared.solve_extended(ctx, constraints[split:])
    again, _ = shared.solve_extended(ctx, constraints[split:])

    assert not (first.is_unsat and fresh.is_sat), \
        "incremental refuted a conjunction the fresh solver satisfied"
    assert not (first.is_sat and fresh.is_unsat), \
        "incremental satisfied a conjunction the fresh solver refuted"
    assert again.status == first.status, "cache returned a different verdict"
    assert shared.stat_cache_hits >= 1, "identical delta must hit the cache"
    for result in (first, fresh):
        if result.is_sat:
            for constraint in constraints:
                assert evaluate(truth_of(constraint), result.model) == 1
    # The child context must stay extensible and sound: a contradictory
    # probe must never come back SAT.
    if child is not None and not first.is_unsat:
        x = Sym("x")
        probe = bin_expr("eq", bin_expr("add", x, Const(1)),
                         bin_expr("add", x, Const(2)))  # always false
        deeper, _ = shared.solve_extended(child, [probe])
        assert not deeper.is_sat


@given(_TRIPLES, _TRIPLES)
@settings(max_examples=80, deadline=None)
def test_unsat_is_never_served_from_stale_context(t1, t2):
    """An UNSAT answer for one delta must never leak to a different
    constraint set sharing the same context (stale-cache soundness)."""
    base = _decidable_constraints(t1)
    other = _decidable_constraints(t2)
    solver = Solver()
    ctx = solver.context_for(base)
    x = Sym("x")
    contradiction = [bin_expr("eq", x, Const(1)),
                     bin_expr("eq", x, Const(2))]
    poisoned, _ = solver.solve_extended(ctx, contradiction)
    assert poisoned.is_unsat
    # A different delta over the same context must be re-decided; a
    # stale UNSAT would contradict a fresh SAT proof outright.  (A
    # fresh UNKNOWN does not contradict an incremental UNSAT — the
    # incremental order may legitimately prove more.)
    verdict, _ = solver.solve_extended(ctx, other)
    fresh = Solver().solve(base + other)
    assert not (verdict.is_unsat and fresh.is_sat), \
        "stale UNSAT served for a different constraint set"
    assert not (verdict.is_sat and fresh.is_unsat)
    if verdict.is_sat:
        for constraint in base + other:
            assert evaluate(truth_of(constraint), verdict.model) == 1
    # And the original (non-contradictory) conjunction still answers
    # without UNSAT bleed-through.
    clean, _ = solver.solve_extended(ctx, [])
    assert not (clean.is_unsat and Solver().solve(base).is_sat)


def test_verdict_cache_is_per_context():
    """The same textual delta under *different* contexts must not share
    verdicts: (x==1)+(x==2) is UNSAT, ()+(x==2) is SAT."""
    x = Sym("x")
    solver = Solver()
    bound = solver.context_for([bin_expr("eq", x, Const(1))])
    unbound = solver.context_for([])
    delta = [bin_expr("eq", x, Const(2))]
    first, _ = solver.solve_extended(bound, delta)
    second, _ = solver.solve_extended(unbound, delta)
    assert first.is_unsat
    assert second.is_sat and second.model["x"] == 2


def test_assert_order_independence_of_chained_bindings():
    """Found by the differential fuzzer (PR 2, program seed 1132): with
    the assertion order (t2 != 0) == t1 before t2 == 0 before t1 == 1,
    the binding t1 ↦ (t2 != 0) was recorded before t2 ↦ 0, and a single
    substitution pass re-introduced the bound t2 — the contradiction
    then leaked into a domain refinement instead of folding to false,
    so from-scratch solves said UNKNOWN where incremental extension
    proved UNSAT.  Every assertion order must now agree on UNSAT."""
    import itertools

    t1, t2 = Sym("t1"), Sym("t2")
    constraints = [
        bin_expr("eq", t1, Const(1)),
        bin_expr("eq", t2, Const(0)),
        bin_expr("eq", bin_expr("ne", t2, Const(0)), t1),
    ]
    for perm in itertools.permutations(constraints):
        assert Solver().solve(list(perm)).is_unsat, \
            f"order {perm} not refuted"
    # And the incremental path agrees, whichever split builds the context.
    for split in range(3):
        solver = Solver()
        ctx = solver.context_for(constraints[:split])
        verdict, _ = solver.solve_extended(ctx, tuple(constraints[split:]))
        assert verdict.is_unsat


def test_expr_range_is_a_sound_over_approximation():
    """Property: for random expressions and random in-domain models,
    the evaluated value always lies inside expr_range's answer."""
    import random as _random

    from repro.symex.interval import IntSet, expr_range

    rng = _random.Random(1234)
    ops = ["add", "sub", "mul", "udiv", "urem", "sdiv", "srem",
           "and", "or", "xor", "shl", "lshr", "ashr",
           "eq", "ne", "ult", "ule", "ugt", "uge",
           "slt", "sle", "sgt", "sge"]

    def random_domain():
        kind = rng.random()
        if kind < 0.3:
            return IntSet.full()
        if kind < 0.5:
            v = rng.randrange(1 << 64)
            return IntSet.point(v)
        lo = rng.randrange(0, 1 << rng.choice((4, 8, 32, 64)))
        hi = lo + rng.randrange(0, 1 << rng.choice((2, 8, 16)))
        return IntSet.of(lo, min(hi, (1 << 64) - 1))

    def random_expr(depth, syms):
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if rng.random() < 0.6:
                return Sym(rng.choice(syms))
            return Const(rng.randrange(-64, 1 << 16))
        return BinExpr(rng.choice(ops),
                       random_expr(depth - 1, syms),
                       random_expr(depth - 1, syms))

    for trial in range(300):
        syms = [f"s{i}" for i in range(rng.randint(1, 3))]
        domains = {name: random_domain() for name in syms}
        expr = random_expr(rng.randint(1, 4), syms)
        approx = expr_range(expr, lambda n: domains[n])
        for _ in range(8):
            model = {}
            for name, dom in domains.items():
                lo, hi = rng.choice(dom.ranges)
                model[name] = rng.randint(lo, hi)
            value = evaluate(expr, model)
            if value is None:
                continue  # division by zero along this valuation
            assert value in approx, (
                f"trial {trial}: {expr!r} evaluated to {value} outside "
                f"{approx!r} under {model} with domains {domains}")


def test_cancellation_identities_fold():
    """(a - b) + b and (a + b) - b must fold away (modular-exact): an
    unfolded round-trip tautology sent to the bit-fixing layer makes
    every residue survive every level — found as an 8x naive-engine
    slowdown by the differential fuzzer's E1 comparison."""
    x = Sym("x")
    c = Const(158)
    assert bin_expr("add", bin_expr("sub", c, x), x) == c
    assert bin_expr("add", x, bin_expr("sub", c, x)) == c
    assert bin_expr("sub", bin_expr("add", c, x), x) == c
    assert bin_expr("sub", bin_expr("add", x, c), x) == c


def test_self_offset_comparison_folds():
    """Found by the differential fuzzer (program seed 7059): a
    loop-counter substitution chain leaves ``i + 1 == i`` as a residual
    constraint.  The modular contradiction must fold at construction —
    left unfolded, the chained incremental context refuted it while the
    from-scratch solve returned UNKNOWN, splitting the prune counters."""
    x = Sym("x")
    for shifted in (bin_expr("add", x, Const(1)),
                    bin_expr("add", x, Const(-7))):
        assert bin_expr("eq", shifted, x) == Const(0)
        assert bin_expr("eq", x, shifted) == Const(0)
        assert bin_expr("ne", shifted, x) == Const(1)
        assert bin_expr("ne", x, shifted) == Const(1)
    # c ≡ 0 mod 2^64 wraps to equality, not contradiction
    wrapped = bin_expr("add", x, Const(1 << 64))
    assert bin_expr("eq", wrapped, x) == Const(1)
    # inequalities are NOT exact under wraparound: no fold
    assert bin_expr("ult", bin_expr("add", x, Const(1)), x) != Const(0)


def test_domain_refinement_survives_open_binding():
    """Found by the differential fuzzer (program seed 2262): a symbol
    with a refined domain (t11 != 0) that later receives an open
    binding (t11 ↦ (t12 != 0)) must still be checked against the domain
    once the binding resolves — here to 0, a contradiction."""
    t11, t12 = Sym("t11"), Sym("t12")
    constraints = [
        bin_expr("ne", t11, Const(0)),
        bin_expr("eq", bin_expr("ne", t12, Const(0)), t11),
        bin_expr("eq", t12, Const(0)),
    ]
    import itertools
    for perm in itertools.permutations(constraints):
        assert Solver().solve(list(perm)).is_unsat
    solver = Solver()
    ctx = solver.context_for(constraints[:1])
    verdict, _ = solver.solve_extended(ctx, tuple(constraints[1:]))
    assert verdict.is_unsat


def test_interval_refutation_of_masked_comparison():
    """Found by the differential fuzzer (program seed 2082): a residual
    like ((n & 3) + 1) > 5000 is beyond the enumeration's reach (full
    2^64 domain) but trivially refutable by interval evaluation."""
    n = Sym("n")
    masked = bin_expr("add", bin_expr("and", n, Const(3)), Const(1))
    assert Solver().solve([bin_expr("sgt", masked, Const(5000))]).is_unsat
    # And the tautological direction is dropped, not left to block SAT.
    result = Solver().solve([bin_expr("sle", masked, Const(5000))])
    assert result.is_sat


# ---------------------------------------------------------------------------
# UNKNOWN memo and search order
# ---------------------------------------------------------------------------

def _factoring_query():
    """x * y == p * q over 32-bit x, y > 1: the guess list never hits a
    factor, so the search gives up (UNKNOWN) without a proof."""
    x, y = Sym("x"), Sym("y")
    return [bin_expr("eq", bin_expr("mul", x, y), Const(1000003 * 999983)),
            bin_expr("ugt", x, Const(1)), bin_expr("ugt", y, Const(1)),
            bin_expr("ult", x, Const(1 << 32)),
            bin_expr("ult", y, Const(1 << 32))]


def _count_searches(solver, monkeypatch):
    searches = []
    original = solver._search

    def counting(*args, **kwargs):
        searches.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_search", counting)
    return searches


def test_unknown_is_memoized_per_ordered_query(monkeypatch):
    solver = Solver(max_nodes=8)
    searches = _count_searches(solver, monkeypatch)
    query = _factoring_query()
    first = solver.solve(query)
    assert first.status is SolveStatus.UNKNOWN
    assert (solver.stat_calls, solver.stat_cache_hits, len(searches)) \
        == (1, 0, 1)
    again = solver.solve(tuple(query))
    assert again is first
    assert (solver.stat_calls, solver.stat_cache_hits, len(searches)) \
        == (2, 1, 1), "a repeat is a call and a cache hit, not a search"
    assert solver.stat_unknown == 2, "memo hits still count as UNKNOWN"


def test_unknown_memo_key_is_order_sensitive(monkeypatch):
    solver = Solver(max_nodes=8)
    searches = _count_searches(solver, monkeypatch)
    query = _factoring_query()
    solver.solve(query)
    reordered = solver.solve(list(reversed(query)))
    assert reordered.status is SolveStatus.UNKNOWN
    assert solver.stat_cache_hits == 0
    assert len(searches) == 2


def test_sat_and_unsat_are_never_memoized(monkeypatch):
    x = Sym("x")
    sat = [bin_expr("ugt", x, Const(10)), bin_expr("ult", x, Const(12))]
    unsat = [bin_expr("ule", x, Const(3)),
             bin_expr("eq", bin_expr("add", x, x), Const(9))]
    solver = Solver()
    searches = _count_searches(solver, monkeypatch)
    results = [solver.solve(query) for query in (sat, unsat, sat, unsat)]
    assert [r.status for r in results] == [SolveStatus.SAT,
                                           SolveStatus.UNSAT] * 2
    assert results[2] is not results[0] and results[3] is not results[1]
    assert len(searches) >= 2, "both SAT solves searched"
    assert solver.stat_cache_hits == 0
    assert solver.stat_unknown == 0


def test_new_synthesizer_empties_the_unknown_memo(monkeypatch):
    from repro.core import ReverseExecutionSynthesizer
    from repro.workloads import FIGURE1_OVERFLOW

    solver = Solver(max_nodes=8)
    query = _factoring_query()
    solver.solve(query)
    solver.solve(query)
    assert solver.stat_cache_hits == 1
    ReverseExecutionSynthesizer(FIGURE1_OVERFLOW.module,
                                FIGURE1_OVERFLOW.trigger(), solver=solver)
    searches = _count_searches(solver, monkeypatch)
    solver.solve(query)
    assert solver.stat_cache_hits == 1, "the memo is scoped to one drive"
    assert len(searches) == 1


@pytest.mark.parametrize("names", [("a", "b"), ("b", "a"), ("x0", "x1"),
                                   ("t9", "t10"), ("zz", "za"),
                                   ("m", "n")])
def test_search_order_ties_break_by_symbol_name(names):
    """Both symbols have 4 candidates; whichever the DFS tries first
    takes the smaller factor of 6, so the model shows the order — name
    order, never set iteration order (which follows PYTHONHASHSEED)."""
    first, second = sorted(names)
    p, q = Sym(names[0]), Sym(names[1])
    result = Solver().solve([bin_expr("ule", p, Const(3)),
                             bin_expr("ule", q, Const(3)),
                             bin_expr("eq", bin_expr("mul", p, q), Const(6))])
    assert result.is_sat
    assert result.model == {first: 2, second: 3}
