"""Verification machinery.

Products of deterministic automata, Muller table algebra, language inclusion
oracles over product loops, an exact polynomial equivalence check for
maximal-loop Muller versus Buchi automata, reproducible random instances,
and the end-to-end witness verifier.

Two oracle routes are deliberately kept separate so that a bug in one cannot
hide in the other: the loop route enumerates realizable Inf sets of a
product, while the lasso route evaluates acceptance of concrete ultimately
periodic words.  Every counterexample either route reports is re-verified by
direct acceptance evaluation before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .automaton import (
    BuchiSet,
    DetAutomaton,
    LassoWord,
    MullerTable,
    accepts_buchi,
    accepts_muller,
)
from .baire import build_baire_witness
from .errors import AlphabetMismatch, PreconditionViolated, SizeGuard
from .loops import (
    DEFAULT_ENUMERATION_BUDGET,
    SccAnalysis,
    analyze,
    bfs_parents,
    cyclic_sccs,
    enumerate_loops,
    is_loop,
    iter_loops,
    self_loop_symbol,
)
from .to_buchi import buchi_state_bound, check_maximal_loops

DEFAULT_PRODUCT_BUDGET = 4096
DEFAULT_SCAN_BUDGET = 1 << 19

Acceptance = MullerTable | BuchiSet


def accepts(a: DetAutomaton, acc: Acceptance, w: LassoWord) -> bool:
    """Acceptance of a lasso under either acceptance kind."""
    if isinstance(acc, MullerTable):
        return accepts_muller(a, acc, w)
    return accepts_buchi(a, acc, w)


def _member_pred(acc: Acceptance) -> Callable[[frozenset[int]], bool]:
    if isinstance(acc, MullerTable):
        entries = acc.entries
        return lambda z: z in entries
    accepting = acc.accepting
    return lambda z: not z.isdisjoint(accepting)


# ---------------------------------------------------------------------------
# Muller table algebra (same automaton)

_TABLE_OPS: dict[str, Callable[[frozenset, frozenset], frozenset]] = {
    "union": frozenset.union,
    "intersection": frozenset.intersection,
    "difference": frozenset.difference,
    "symmetric-difference": frozenset.symmetric_difference,
}


def boolean_table_op(
    a: DetAutomaton, t: MullerTable, t2: MullerTable, op: str
) -> MullerTable:
    """Entry-set Boolean operation; the language of the result is the same
    operation applied to the two languages."""
    if op not in _TABLE_OPS:
        raise ValueError(f"unknown table operation {op!r}")
    t.validate_for(a.n_states)
    t2.validate_for(a.n_states)
    return MullerTable(_TABLE_OPS[op](t.entries, t2.entries))


def table_subset_same_automaton(
    a: DetAutomaton,
    t: MullerTable,
    t2: MullerTable,
    analysis: SccAnalysis | None = None,
) -> bool:
    """Language inclusion over one automaton: every entry of `t` that is a
    loop must be an entry of `t2`.  Entries that are not loops are inert."""
    if analysis is None:
        analysis = analyze(a)
    t.validate_for(a.n_states)
    t2.validate_for(a.n_states)
    return all(
        entry in t2.entries
        for entry in t.entries
        if is_loop(a, entry, analysis)
    )


# ---------------------------------------------------------------------------
# Products


@dataclass(frozen=True)
class ProductAutomaton:
    """Reachable synchronous product; `left` and `right` project product
    states back to the factors."""

    automaton: DetAutomaton
    left: tuple[int, ...]
    right: tuple[int, ...]


def product(
    aA: DetAutomaton, aB: DetAutomaton, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> ProductAutomaton:
    """Synchronous product restricted to the states reachable from the pair
    of initial states.  Requires identical alphabets, token for token."""
    if aA.alphabet != aB.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {list(aA.alphabet)} vs {list(aB.alphabet)}"
        )
    r = len(aA.alphabet)
    dA, dB = aA.delta, aB.delta
    index: dict[tuple[int, int], int] = {(aA.initial, aB.initial): 0}
    pairs: list[tuple[int, int]] = [(aA.initial, aB.initial)]
    flat: list[int] = []
    qi = 0
    while qi < len(pairs):
        sa, sb = pairs[qi]
        for x in range(r):
            key = (dA[sa * r + x], dB[sb * r + x])
            nxt = index.get(key)
            if nxt is None:
                if len(pairs) >= budget:
                    raise SizeGuard(
                        f"product exceeds {budget} states; raise the budget to continue"
                    )
                nxt = len(pairs)
                index[key] = nxt
                pairs.append(key)
            flat.append(nxt)
        qi += 1
    automaton = DetAutomaton(
        alphabet=aA.alphabet, n_states=len(pairs), initial=0, delta=tuple(flat)
    )
    return ProductAutomaton(
        automaton=automaton,
        left=tuple(p[0] for p in pairs),
        right=tuple(p[1] for p in pairs),
    )


# ---------------------------------------------------------------------------
# Witness lassos for product loops


def _bfs_path(
    a: DetAutomaton,
    start: int,
    goal: Callable[[int], bool],
    allowed: frozenset[int] | None = None,
) -> tuple[list[str], int]:
    """Shortest path (symbol list, end state) to the first goal state in BFS
    order; `allowed` restricts the walk.  Raises if unreachable."""
    parent = bfs_parents(a.delta, len(a.alphabet), start, allowed)
    end = next((s for s in parent if goal(s)), None)
    if end is None:
        raise RuntimeError("goal not reachable")
    symbols: list[str] = []
    cur = end
    while cur != start:
        cur, x = parent[cur]
        symbols.append(a.alphabet[x])
    symbols.reverse()
    return symbols, end


def loop_lasso(a: DetAutomaton, z: frozenset[int]) -> LassoWord:
    """A lasso whose run has Inf set exactly `z`: shortest prefix into the
    loop, then a closed covering walk of the loop."""
    entry_syms, target = _bfs_path(a, a.initial, lambda s: s in z)
    period: list[str] = []
    current = target
    remaining = set(z) - {target}
    while remaining:
        syms, end = _bfs_path(a, current, lambda s: s in remaining, allowed=z)
        walk = current
        for tok in syms:
            walk = a.delta[walk * len(a.alphabet) + a.symbol_index[tok]]
            remaining.discard(walk)
        period.extend(syms)
        current = end
    if current != target or not period:
        if current == target:
            period.append(a.alphabet[self_loop_symbol(a, target)])
        else:
            syms, _ = _bfs_path(a, current, lambda s: s == target, allowed=z)
            period.extend(syms)
    return LassoWord(tuple(entry_syms), tuple(period))


# ---------------------------------------------------------------------------
# Language inclusion via product loops


@dataclass(frozen=True)
class SubsetVerdict:
    holds: bool
    counterexample: LassoWord | None = None

    def __bool__(self) -> bool:
        return self.holds


def _checked_verdict(
    aA: DetAutomaton,
    accA: Acceptance,
    aB: DetAutomaton,
    accB: Acceptance,
    w: LassoWord,
) -> SubsetVerdict:
    """Package a counterexample after re-verifying it by direct acceptance."""
    if not accepts(aA, accA, w) or accepts(aB, accB, w):
        raise RuntimeError("oracle witness failed direct verification")
    return SubsetVerdict(False, w)


def language_subset_oracle(
    aA: DetAutomaton,
    accA: Acceptance,
    aB: DetAutomaton,
    accB: Acceptance,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
    loop_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SubsetVerdict:
    """Decide L(aA, accA) <= L(aB, accB) by enumerating product loops.

    Exact but exponential in the product SCC sizes; intended for desk-scale
    instances.  A False verdict carries a verified counterexample lasso.
    """
    prod = product(aA, aB, budget=product_budget)
    predA = _member_pred(accA)
    predB = _member_pred(accB)
    left, right = prod.left, prod.right
    for z in iter_loops(prod.automaton, budget=loop_budget):
        zl = frozenset(left[q] for q in z)
        zr = frozenset(right[q] for q in z)
        if predA(zl) and not predB(zr):
            return _checked_verdict(aA, accA, aB, accB, loop_lasso(prod.automaton, z))
    return SubsetVerdict(True, None)


# ---------------------------------------------------------------------------
# Exact equivalence: maximal-loop Muller vs Buchi


def maximal_muller_buchi_equiv(
    aA: DetAutomaton,
    t: MullerTable,
    aB: DetAutomaton,
    b: BuchiSet,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> SubsetVerdict:
    """Exact equality of a maximal-loop Muller language and a Buchi language,
    polynomial in the product size.

    Product loops are grouped by the SCC of their Muller-side projection.
    Within each group, a disagreeing loop exists iff one of a family of
    SCC cover tests succeeds: a loop that hits the Buchi set while missing
    one required state of a table block (or sitting over a non-table SCC),
    or a loop that covers a whole table block while avoiding the Buchi set.
    """
    analysisA = analyze(aA)
    report = check_maximal_loops(aA, t, analysisA)
    if not report.ok:
        raise PreconditionViolated(report.describe())
    blocks = set(report.blocks)
    b.validate_for(aB.n_states)

    prod = product(aA, aB, budget=product_budget)
    P = prod.automaton
    left, right = prod.left, prod.right
    hit = [right[p] in b.accepting for p in range(P.n_states)]

    by_scc: dict[int, list[int]] = {}
    for p in range(P.n_states):
        by_scc.setdefault(analysisA.scc_of[left[p]], []).append(p)

    def first_violation(sub: list[int], want: Callable[[frozenset[int]], bool]):
        return next((c for c in cyclic_sccs(P, sub) if want(c)), None)

    for d in sorted(by_scc):
        region = by_scc[d]
        scc_set = analysisA.sccs[d]
        if scc_set in blocks:
            for z_star in sorted(scc_set):
                sub = [p for p in region if left[p] != z_star]
                z = first_violation(sub, lambda c: any(hit[p] for p in c))
                if z is not None:
                    return _checked_verdict(aB, b, aA, t, loop_lasso(P, z))
            sub = [p for p in region if not hit[p]]
            classes = frozenset(scc_set)
            z = first_violation(
                sub, lambda c: frozenset(left[p] for p in c) == classes
            )
            if z is not None:
                return _checked_verdict(aA, t, aB, b, loop_lasso(P, z))
        else:
            z = first_violation(region, lambda c: any(hit[p] for p in c))
            if z is not None:
                return _checked_verdict(aB, b, aA, t, loop_lasso(P, z))
    return SubsetVerdict(True, None)


# ---------------------------------------------------------------------------
# Bounded exhaustive lasso scan

def lasso_domain_size(alphabet_size: int, max_prefix: int, max_period: int) -> int:
    """Number of lassos with |prefix| <= max_prefix, 1 <= |period| <= max_period."""
    prefixes = sum(alphabet_size**i for i in range(max_prefix + 1))
    periods = sum(alphabet_size**j for j in range(1, max_period + 1))
    return prefixes * periods


def bounded_lasso_scan(
    a: DetAutomaton,
    violation: Callable[[frozenset[int]], bool],
    max_prefix: int,
    max_period: int,
    *,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> LassoWord | None:
    """First lasso with |prefix| <= max_prefix and 1 <= |period| <= max_period
    whose Inf set satisfies `violation`, or None (also when that domain is
    empty).

    Acceptance of a lasso depends on the prefix only through the state it
    reaches, so prefixes are collapsed to one shortest representative per
    reachable state; the scan is exhaustive over the full bounded domain.
    Periods are walked in depth-first preorder, and for each period the
    start states in ascending order; the first start whose run violates
    gives the lasso.

    Down the period walk each state carries its image under the period and
    the mask of states visited while reading it, so the Inf set of a cycle
    of the period map is the OR of its anchors' masks.  For each period one
    pass over the map, stamping each state with the start whose walk
    entered it first, finds the cycle every start falls into; each state is
    walked once per period, and only a start that closes a new cycle needs
    a verdict, since the others share the cycle of an earlier start.
    Verdicts are memoized per Inf mask for the whole call: each distinct
    Inf set costs one frozenset and one call, so `violation` must be a pure
    function of the Inf set.
    """
    r = len(a.alphabet)
    n = a.n_states
    delta = a.delta
    if max_prefix < 0 or max_period < 1:
        return None
    cost = n * sum(r**j for j in range(1, max_period + 1))
    if cost > budget:
        raise SizeGuard(f"lasso scan needs about {cost} steps, budget is {budget}")

    starts: dict[int, tuple[str, ...]] = {}
    for t, (s, x) in bfs_parents(delta, r, a.initial, depth=max_prefix).items():
        starts[t] = () if s < 0 else starts[s] + (a.alphabet[x],)
    start_items = sorted(starts.items())

    step_maps = [[delta[s * r + x] for s in range(n)] for x in range(r)]
    bit = [1 << s for s in range(n)]
    # Walks are numbered over the whole call, one per start state; a state
    # stamped at or after a period's first walk was entered in that period.
    stamp = [0] * n
    walk = 0
    verdicts: dict[int, bool] = {}

    def violating_prefix(
        mapping: list[int], trace: list[int]
    ) -> tuple[str, ...] | None:
        nonlocal walk
        first_walk = walk + 1
        for state, prefix in start_items:
            walk += 1
            x = state
            while stamp[x] < first_walk:
                stamp[x] = walk
                x = mapping[x]
            if stamp[x] != walk:
                continue  # the cycle of an earlier start, which did not violate
            inf = trace[x]
            y = mapping[x]
            while y != x:
                inf |= trace[y]
                y = mapping[y]
            verdict = verdicts.get(inf)
            if verdict is None:
                zs = frozenset(q for q in range(n) if inf >> q & 1)
                verdict = verdicts[inf] = violation(zs)
            if verdict:
                return prefix
        return None

    def dfs(
        mapping: list[int], trace: list[int], period_idx: tuple[int, ...]
    ) -> LassoWord | None:
        for xi in range(r):
            step = step_maps[xi]
            new_map = [step[m] for m in mapping]
            new_trace = [v | bit[m] for v, m in zip(trace, new_map)]
            new_idx = period_idx + (xi,)
            prefix = violating_prefix(new_map, new_trace)
            if prefix is not None:
                return LassoWord(prefix, tuple(a.alphabet[i] for i in new_idx))
            if len(new_idx) < max_period:
                found = dfs(new_map, new_trace, new_idx)
                if found is not None:
                    return found
        return None

    return dfs(list(range(n)), [0] * n, ())


# ---------------------------------------------------------------------------
# Random instances


def _alphabet_tokens(size: int) -> tuple[str, ...]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if size <= len(letters):
        return tuple(letters[:size])
    return tuple(f"s{i}" for i in range(size))


@dataclass(frozen=True)
class RandomSpec:
    """Reproducible description of a random (automaton, table) instance.

    Transition targets are uniform; half the table entries (rounded half to
    even) are drawn from the actual loops of the automaton and the rest as
    uniform subsets, so inert entries are exercised too.
    """

    n_states: int
    alphabet_size: int = 2
    table_entry_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if self.table_entry_count < 0:
            raise ValueError("table_entry_count must be at least 0")
        if self.n_states < 63 and self.table_entry_count > 2**self.n_states:
            raise ValueError("table_entry_count exceeds the number of subsets")


def random_instance(spec: RandomSpec) -> tuple[DetAutomaton, MullerTable]:
    """Seeded instance; the same spec always yields the same pair."""
    rng = random.Random(spec.seed)
    n = spec.n_states
    alphabet = _alphabet_tokens(spec.alphabet_size)
    flat = tuple(rng.randrange(n) for _ in range(n * len(alphabet)))
    a = DetAutomaton(alphabet=alphabet, n_states=n, initial=0, delta=flat)

    analysis = analyze(a)
    try:
        pool = enumerate_loops(a, budget=1 << 16, analysis=analysis)
    except SizeGuard:
        # Too many subsets to enumerate: reachable SCCs are loops and keep
        # the half-from-loops contract at any scale.
        pool = [c for c in analysis.sccs if is_loop(a, c, analysis)]

    want = spec.table_entry_count
    from_loops = round(want * 0.5)
    entries: set[frozenset[int]] = set()
    if pool and from_loops:
        picked = rng.sample(sorted(pool, key=lambda z: tuple(sorted(z))),
                            min(from_loops, len(pool)))
        entries.update(picked)

    attempts = 0
    while len(entries) < want and attempts < 100 * max(want, 1):
        attempts += 1
        if n < 63:
            mask = rng.randrange(1 << n)
        else:
            mask = rng.getrandbits(n)
        entries.add(frozenset(s for s in range(n) if mask >> s & 1))
    fill = 0
    while len(entries) < want:
        entries.add(frozenset(s for s in range(n) if fill >> s & 1))
        fill += 1
    return a, MullerTable(frozenset(entries))


# ---------------------------------------------------------------------------
# End-to-end witness verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    witness: LassoWord | None = None
    detail: str = ""


@dataclass(frozen=True)
class WitnessReport:
    """Per-check outcome of the full witness pipeline on one instance."""

    alphabet: tuple[str, ...]
    buchi_unpruned: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def render(self) -> str:
        from .fileformat import format_lasso

        lines = []
        for c in self.checks:
            line = f"check {c.name} {c.status}"
            if c.witness is not None:
                line += f" {format_lasso(c.witness, self.alphabet)}"
            lines.append(line)
        return "\n".join(lines)


def verify_baire_witness(
    a: DetAutomaton,
    t: MullerTable,
    *,
    lasso_bound: int = 8,
    loop_budget: int = DEFAULT_ENUMERATION_BUDGET,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
    skip_over_budget: bool = False,
) -> WitnessReport:
    """Build the witness bundle with `build_baire_witness` and re-verify
    every claimed property of exactly that bundle.

    Checks: the table-level identity behind the open witness (its table is
    exactly the merged states of the terminal-SCC entries), the inclusion
    of the symmetric difference in the meagre set via product loops and via
    exhaustive bounded lassos (and that those two routes agree), agreement
    of both Buchi automata with their Muller counterparts, weakness of the
    open Buchi automaton (one pass over its SCCs, so never skipped), and
    the exact state bound of the layered translation.  With
    `skip_over_budget`, checks whose exhaustive part would exceed a budget
    are reported as skipped instead of raising SizeGuard.
    """
    analysis = analyze(a)
    t.validate_for(a.n_states)
    witness = build_baire_witness(a, t, analysis)
    a1, t1 = witness.open_muller
    _, meagre_table = witness.meagre_complement_muller
    b1_automaton, b1_accepting = witness.open_buchi
    b2_automaton, b2_accepting = witness.meagre_complement_buchi
    unpruned = witness.meagre_buchi_unpruned
    checks: list[CheckResult] = []

    def guarded(name: str, fn: Callable[[], CheckResult]) -> None:
        try:
            checks.append(fn())
        except SizeGuard as e:
            if not skip_over_budget:
                raise
            checks.append(CheckResult(name, "skip", detail=str(e)))

    def symdiff_symbolic() -> CheckResult:
        # A run whose Inf set is a terminal SCC ends in that SCC's merged
        # state, so F and E agree on all such runs (and differ only inside
        # the meagre set) when E's table is exactly the merged states of the
        # terminal SCCs that are entries of t.
        expected = frozenset(
            frozenset({m})
            for m, o in witness.state_origin.items()
            if isinstance(o, frozenset) and o in t.entries
        )
        wrong = expected ^ t1.entries
        if not wrong:
            return CheckResult("symdiff-symbolic", "pass")
        detail = f"open table differs on {sorted(map(sorted, wrong))}"
        return CheckResult("symdiff-symbolic", "fail", detail=detail)

    prod1 = None

    def symdiff_pred_factory():
        left, right = prod1.left, prod1.right
        t_entries = t.entries
        t1_entries = t1.entries
        t2_entries = meagre_table.entries

        def pred(z: frozenset[int]) -> bool:
            zl = frozenset(left[q] for q in z)
            zr = frozenset(right[q] for q in z)
            return ((zl in t_entries) != (zr in t1_entries)) and zl in t2_entries

        return pred

    def symdiff_loops() -> CheckResult:
        pred = symdiff_pred_factory()
        for z in iter_loops(prod1.automaton, budget=loop_budget):
            if pred(z):
                w = loop_lasso(prod1.automaton, z)
                in_f = accepts_muller(a, t, w)
                in_e = accepts_muller(a1, t1, w)
                in_meagre_complement = accepts_muller(a, meagre_table, w)
                if not ((in_f != in_e) and in_meagre_complement):
                    raise RuntimeError("loop witness failed re-check")
                return CheckResult("symdiff-loops", "fail", witness=w)
        return CheckResult("symdiff-loops", "pass")

    def symdiff_lassos() -> CheckResult:
        pred = symdiff_pred_factory()
        w = bounded_lasso_scan(prod1.automaton, pred, lasso_bound, lasso_bound)
        if w is not None:
            return CheckResult("symdiff-lassos", "fail", witness=w)
        covered = lasso_domain_size(len(a.alphabet), lasso_bound, lasso_bound)
        return CheckResult("symdiff-lassos", "pass", detail=f"covers {covered} lassos")

    def b1_language() -> CheckResult:
        verdict = maximal_muller_buchi_equiv(
            a1, t1, b1_automaton, b1_accepting, product_budget=product_budget
        )
        if verdict.holds:
            return CheckResult("b1-language", "pass")
        return CheckResult("b1-language", "fail", witness=verdict.counterexample)

    def b1_weak() -> CheckResult:
        # A straddling loop lies inside one reachable SCC, which then
        # straddles too; so checking those SCCs is exact and polynomial.
        acc = b1_accepting.accepting
        r1 = len(b1_automaton.alphabet)
        reachable = bfs_parents(b1_automaton.delta, r1, b1_automaton.initial)
        for comp in cyclic_sccs(b1_automaton, reachable):
            if not (comp <= acc or comp.isdisjoint(acc)):
                return CheckResult(
                    "b1-weak", "fail", detail=f"straddling loop {sorted(comp)}"
                )
        return CheckResult("b1-weak", "pass")

    def b2_language() -> CheckResult:
        verdict = maximal_muller_buchi_equiv(
            a,
            meagre_table,
            b2_automaton,
            b2_accepting,
            product_budget=product_budget,
        )
        if verdict.holds:
            return CheckResult("b2-language", "pass")
        return CheckResult("b2-language", "fail", witness=verdict.counterexample)

    def b2_bound() -> CheckResult:
        expected = buchi_state_bound(a, meagre_table, analysis)
        n = a.n_states
        ok = unpruned == expected and expected <= n + n * n
        detail = f"unpruned {unpruned}, bound {expected}"
        return CheckResult("b2-bound", "pass" if ok else "fail", detail=detail)

    checks.append(symdiff_symbolic())
    try:
        prod1 = product(a, a1, budget=product_budget)
    except SizeGuard as e:
        if not skip_over_budget:
            raise
        for name in ("symdiff-loops", "symdiff-lassos", "symdiff-agreement"):
            checks.append(CheckResult(name, "skip", detail=str(e)))
    if prod1 is not None:
        guarded("symdiff-loops", symdiff_loops)
        guarded("symdiff-lassos", symdiff_lassos)
        by_name = {c.name: c for c in checks}
        loops_c = by_name.get("symdiff-loops")
        lassos_c = by_name.get("symdiff-lassos")
        if loops_c and lassos_c and "skip" not in (loops_c.status, lassos_c.status):
            agree = loops_c.status == lassos_c.status
            checks.append(
                CheckResult("symdiff-agreement", "pass" if agree else "fail")
            )
        else:
            checks.append(
                CheckResult("symdiff-agreement", "skip", detail="a route was skipped")
            )
    guarded("b1-language", b1_language)
    checks.append(b1_weak())
    guarded("b2-language", b2_language)
    guarded("b2-bound", b2_bound)

    return WitnessReport(
        alphabet=a.alphabet,
        buchi_unpruned=unpruned,
        checks=tuple(checks),
    )
