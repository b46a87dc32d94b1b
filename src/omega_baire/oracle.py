"""Verification machinery.

Products of deterministic automata, Muller table algebra, language inclusion
oracles over product loops, an exact polynomial equivalence check for
maximal-loop Muller versus Buchi automata, reproducible random instances,
and the end-to-end witness verifier.

Two oracle routes are deliberately kept separate so that a bug in one cannot
hide in the other: the loop route judges the realizable Inf sets of a
product, while the lasso route evaluates concrete ultimately periodic words,
one period per conjugacy class where that decides the same domain, and never
enumerates loops.  The loop route, in the verifier and in
`language_subset_oracle` alike, decides whether a violating loop exists by
the Emerson & Lei refinement of `loops.refined_loop`, one search per table
entry that splits only the product SCCs that fail to decide it.  Only once
one exists does it enumerate loops, in `iter_loops` order and in the first
product SCC that holds one alone, so it reports the first of them.  Every
counterexample either route reports is re-verified by direct acceptance
evaluation before it is returned.  The exact check behind `b2-language`
enumerates no loops either: per table block and required state z*, one
level-order walk from each accepting product state, linear in the block's
product region, tells whether that state lies on a cycle avoiding z*.

The checks of `verify_baire_witness`, in report order, with the budgets
that can make them skip in brackets (F input, E open witness, F' meagre):
  symdiff-symbolic   E's table is the merged states of F's terminal-SCC entries
  symdiff-loops      no loop of the F x E product lies in (F xor E) minus F'
                     [product, loop]
  symdiff-lassos     no such lasso, prefix and period <= `lasso_bound` [product, scan]
  symdiff-agreement  the two routes agree [skips when either route skipped]
  b1-language        open Buchi automaton = E, exactly (its product is the
                     diagonal of E, given a budget of at least |E| states)
  b1-weak            no reachable SCC of it straddles its accepting set
  b2-language        meagre-complement Buchi automaton = its Muller form [product]
  b2-bound           its unpruned size is |S| + sum of squared blocks <= |S| + |S|^2
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Collection, Iterator

from .automaton import (
    BuchiSet,
    DetAutomaton,
    LassoWord,
    MullerTable,
    accepts_buchi,
    accepts_muller,
)
from .baire import build_baire_witness
from .errors import AlphabetMismatch, BadLoop, PreconditionViolated, SizeGuard
from .fileformat import format_lasso
from .loops import (
    DEFAULT_ENUMERATION_BUDGET,
    SccAnalysis,
    analyze,
    cyclic_sccs,
    enumerate_loops,
    is_loop,
    iter_loops,
    level_order,
    refined_loop,
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
    of initial states.  Requires identical alphabets, token for token.
    Every product state, the initial pair too, counts against `budget`."""
    if aA.alphabet != aB.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {list(aA.alphabet)} vs {list(aB.alphabet)}"
        )
    r = len(aA.alphabet)
    dA, dB = aA.delta, aB.delta
    over_budget = f"product exceeds {budget} states; raise the budget to continue"
    if budget < 1:
        raise SizeGuard(over_budget)
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
                    raise SizeGuard(over_budget)
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
    a: DetAutomaton, z: frozenset[int], start: int, goal: Callable[[int], bool], inside=True
) -> tuple[list[str], int]:
    """Shortest path (symbol list, end state) to the first goal state in
    level order, inside `z` if `inside`; the walk stops at the goal, so
    every other state on the path fails `goal`.  For `loop_lasso`, whose
    walks decide whether `z` is a loop: BadLoop when no goal is in reach."""
    parent: dict[int, tuple[int, int]] = {}
    for end, s, x in level_order(a.delta, len(a.alphabet), start, z if inside else None):
        parent[end] = (s, x)
        if goal(end):
            break
    else:
        raise BadLoop(f"set {sorted(z)} is not a loop")
    symbols: list[str] = []
    cur = end
    while cur != start:
        cur, x = parent[cur]
        symbols.append(a.alphabet[x])
    symbols.reverse()
    return symbols, end


def loop_lasso(a: DetAutomaton, z: frozenset[int]) -> LassoWord:
    """A lasso whose run has Inf set exactly `z`: shortest prefix into the
    loop, then a closed covering walk of the loop.  The walks raise BadLoop
    when `z` is not a loop: the entry walk finds no state of `z`, a walk
    inside `z` misses its goal, or its one state has no self-transition."""
    entry_syms, target = _bfs_path(a, z, a.initial, z.__contains__, inside=False)
    period: list[str] = []
    current = target
    remaining = set(z) - {target}
    while remaining:
        syms, current = _bfs_path(a, z, current, remaining.__contains__)
        remaining.discard(current)
        period.extend(syms)
    if period:  # the last covering walk ended in `remaining`, not at `target`
        period.extend(_bfs_path(a, z, current, lambda s: s == target)[0])
    elif (x := self_loop_symbol(a, target)) is None:
        raise BadLoop(f"set {sorted(z)} is not a loop")
    else:  # a one-state loop closes on its self-transition
        period.append(a.alphabet[x])
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


def _first_violating_loop(
    prod: ProductAutomaton,
    searches: list[tuple[Collection[int], Callable, Callable]],
    violates: Callable[[frozenset[int]], bool],
    loop_budget: int,
) -> frozenset[int] | None:
    """The first loop in `iter_loops` order of `prod` that `violates` holds
    of, or None.  A loop must violate exactly when, for some search (region,
    wanted, rejected), it lies inside the region, `wanted` holds of it and
    `rejected` of its right projection.

    Whether there is one is decided first, by `refined_loop` once per
    search, labelled by the right projection.  Only then are the searches
    run again on the product SCCs below the one found, one SCC at a time in
    id order, to find the first SCC that holds a violating loop.  That SCC
    alone is enumerated, charged 2^|D| against `loop_budget`, so the loop
    returned is the one that enumerating every loop would find first."""
    P, right = prod.automaton, prod.right
    for region, wanted, rejected in searches:
        found = refined_loop(P, region, wanted, rejected, right, loop_budget)
        if found is not None:
            break
    else:
        return None
    analysis = analyze(P)
    scc_of = analysis.scc_of
    first = scc_of[min(found)]
    for region, wanted, rejected in searches:
        below: dict[int, list[int]] = {}
        for q in region:
            if scc_of[q] < first:
                below.setdefault(scc_of[q], []).append(q)
        for d in sorted(below):
            if refined_loop(P, below[d], wanted, rejected, right, loop_budget) is not None:
                first = d
                break
    loops = iter_loops(P, budget=loop_budget, sccs=[analysis.sccs[first]])
    return next(filter(violates, loops))


def language_subset_oracle(
    aA: DetAutomaton,
    accA: Acceptance,
    aB: DetAutomaton,
    accB: Acceptance,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
    loop_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SubsetVerdict:
    """Decide L(aA, accA) <= L(aB, accB) on their product.

    A product loop violates inclusion when its left projection is accepted
    and its right one is not.  Whether one exists is decided by the Emerson
    & Lei refinement of `refined_loop`, with no loop enumerated: for a left
    table, once per entry F over the product states above F, wanting loops
    whose left projection is F; for a left Buchi set, once, wanting loops
    that hit it.  A right table rejects a right projection that is no
    entry; a right Buchi set removes the states above it from the search.
    `loop_budget` caps the SCCs the refinement expands, and the subsets of
    the one product SCC enumerated to pick the counterexample: the first
    violating loop in `iter_loops` order.  A False verdict carries that
    loop's lasso, verified by direct acceptance.
    """
    accA.validate_for(aA.n_states)
    accB.validate_for(aB.n_states)
    prod = product(aA, aB, budget=product_budget)
    left, right = prod.left, prod.right
    states: Collection[int] = range(prod.automaton.n_states)
    if isinstance(accB, BuchiSet):
        states = [q for q in states if right[q] not in accB.accepting]
        rejected: Callable[[frozenset[int]], bool] = lambda zr: True
    else:
        rejected = lambda zr: zr not in accB.entries
    if isinstance(accA, BuchiSet):
        hits = accA.accepting
        searches = [(states, lambda c: any(left[q] in hits for q in c), rejected)]
    else:
        searches = [
            ([q for q in states if left[q] in f], lambda c, f=f: {left[q] for q in c} == f,
             rejected)
            for f in accA.entries
        ]
    predA, predB = _member_pred(accA), _member_pred(accB)

    def violates(z: frozenset[int]) -> bool:
        return predA(frozenset(left[q] for q in z)) and not predB(frozenset(right[q] for q in z))

    z = _first_violating_loop(prod, searches, violates, loop_budget)
    if z is None:
        return SubsetVerdict(True, None)
    return _checked_verdict(aA, accA, aB, accB, loop_lasso(prod.automaton, z))


# ---------------------------------------------------------------------------
# Exact equivalence: maximal-loop Muller vs Buchi


def _on_cycle(a: DetAutomaton, h: int, allowed: set[int]) -> bool:
    """Whether state `h` lies on a cycle inside `allowed`: some state that
    the level-order walk from `h` reaches inside `allowed` has `h` as a
    successor."""
    r = len(a.alphabet)
    delta = a.delta
    return any(h in delta[s * r : s * r + r] for s, _, _ in level_order(delta, r, h, allowed))


def maximal_muller_buchi_equiv(
    aA: DetAutomaton,
    t: MullerTable,
    aB: DetAutomaton,
    b: BuchiSet,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
    analysis: SccAnalysis | None = None,
) -> SubsetVerdict:
    """Exact equality of a maximal-loop Muller language and a Buchi language,
    polynomial in the product size.  `analysis`, when given, is that of
    `aA`, as the builders take it.

    Product loops are grouped by the SCC of their Muller-side projection.
    Within each group, a disagreeing loop exists iff one of a family of
    SCC cover tests succeeds: a loop that hits the Buchi set while missing
    one required state z* of a table block (or sitting over a non-table
    SCC), or a loop that covers a whole table block while avoiding the
    Buchi set.

    The member family is decided by level-order walks: a cyclic SCC of the
    group minus z* holds a hit iff some hit state lies on a cycle there,
    which one `level_order` walk from the hit inside the group minus z*
    tells, in O(|group|·|X|) time and memory.  Only the first z* that
    succeeds gets its SCC pass, which finds the same SCC and so the same
    lasso as a pass per member would; a group over a non-table SCC is
    passed over when it holds no hit.  So a correct layered
    translation, whose accepting states all lie over table blocks, costs
    one SCC pass per block.
    """
    analysisA = analyze(aA) if analysis is None else analysis
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

    def first_violation(sub: Collection[int], want: Callable[[frozenset[int]], bool]):
        return next((c for c in cyclic_sccs(P, sub) if want(c)), None)

    def holds_hit(c: frozenset[int]) -> bool:
        return any(hit[p] for p in c)

    for d in sorted(by_scc):
        region = by_scc[d]
        scc_set = analysisA.sccs[d]
        if scc_set in blocks:
            hits = [p for p in region if hit[p]]
            if hits and len(scc_set) > 1:  # a one-state block minus z* is empty
                over: dict[int, list[int]] = {z: [] for z in scc_set}  # the states over z
                for p in region:
                    over[left[p]].append(p)
                allowed = set(region)
                for z_star in sorted(scc_set):
                    allowed.difference_update(over[z_star])
                    if any(h in allowed and _on_cycle(P, h, allowed) for h in hits):
                        z = first_violation(allowed, holds_hit)
                        return _checked_verdict(aB, b, aA, t, loop_lasso(P, z))
                    allowed.update(over[z_star])
            sub = [p for p in region if not hit[p]]
            classes = frozenset(scc_set)
            z = first_violation(
                sub, lambda c: frozenset(left[p] for p in c) == classes
            )
            if z is not None:
                return _checked_verdict(aA, t, aB, b, loop_lasso(P, z))
        elif holds_hit(region):
            z = first_violation(region, holds_hit)
            if z is not None:
                return _checked_verdict(aB, b, aA, t, loop_lasso(P, z))
    return SubsetVerdict(True, None)


# ---------------------------------------------------------------------------
# Bounded lasso scan

def lasso_domain_size(alphabet_size: int, max_prefix: int, max_period: int) -> int:
    """Number of lassos with |prefix| <= max_prefix, 1 <= |period| <= max_period."""
    prefixes = sum(alphabet_size**i for i in range(max_prefix + 1))
    periods = sum(alphabet_size**j for j in range(1, max_period + 1))
    return prefixes * periods


def _period_nodes(r: int, max_period: int, closed: bool) -> Iterator[int]:
    """The number of period nodes `bounded_lasso_scan` builds at each depth
    1..max_period: every word of that length, or for a closed domain the
    prenecklaces, P(j) = Lyn(1) + ... + Lyn(j), and at the last depth the
    Lyndon words alone.  Lyn(j) comes from r^j = sum of d * Lyn(d) over the
    divisors d of j, summed over the nonzero counts only, so a one-letter
    alphabet costs one term a depth."""
    lyndon: dict[int, int] = {}  # length -> number of Lyndon words, if nonzero
    prenecklaces = 0
    for j in range(1, max_period + 1):
        lyn = (r**j - sum(d * c for d, c in lyndon.items() if j % d == 0)) // j
        if lyn:
            lyndon[j] = lyn
        prenecklaces += lyn
        if not closed:
            yield r**j
        else:
            yield prenecklaces if j < max_period else lyn


_JUDGED, _INNER = 1, 2  # the bits of a node's kind in `_walk_program`


@lru_cache(maxsize=8)
def _walk_program(
    r: int, max_period: int, closed: bool
) -> tuple[memoryview, memoryview, bytes]:
    """The nodes of `bounded_lasso_scan`'s period walk in depth-first
    preorder, as three read-only arrays: each node's depth (1 to
    `max_period`), its last letter, and its kind, `_JUDGED` when its period
    is judged and `_INNER` when it has children.  The walk depends only on
    these three arguments, so it is built once and cached.

    Preorder is lexicographic order, so the nodes come in runs: for each
    word of length `max_period` in lexicographic order, its prefixes longer
    than the one it shares with the word before it.  An open domain walks
    and judges every word.  A closed one walks the prenecklaces, in the
    order of Fredricksen, Kessler and Maiorana: the first new prefix of
    each is a Lyndon word, judged, that the rest of the word repeats, so the
    longer prefixes are walked unjudged, and the whole word is built only
    when it is that Lyndon word: a leaf that is not judged is not built."""
    m = max_period
    depths = array("i")
    letters = array("i")
    kinds = bytearray()
    # The kinds of a run's nodes by position.  Closed, the node at depth
    # m - 1 gets children only from a leaf run after it.
    if closed:
        tail = bytes([_INNER]) * (m - 2) + b"\0"
    else:
        tail = bytes([_JUDGED | _INNER]) * (m - 1) + bytes([_JUDGED])
    word = [0] * m
    i = 0  # the first position where `word` differs from the word before it
    parent = -1  # the index of the last node at depth m - 1
    while True:
        end = m if not closed or i == m - 1 else m - 1
        depths.extend(range(i + 1, end + 1))
        letters.extend(word[i:end])
        if not closed:
            kinds += tail[i:]
        elif end == m:
            kinds.append(_JUDGED)
            if parent >= 0:
                kinds[parent] |= _INNER
        else:
            kinds.append(tail[i] | _JUDGED)
            kinds += tail[i + 1 :]
            parent = len(kinds) - 1
        if closed and word[0] == r - 1:
            break  # the last prenecklace, (r - 1)^m
        i = m - 1
        while i >= 0 and word[i] == r - 1:
            i -= 1
        if i < 0:
            break
        word[i] += 1
        if closed:  # repeat the Lyndon word word[:i + 1]
            word[i + 1 :] = (word[: i + 1] * (m // (i + 1)))[: m - i - 1]
        else:
            word[i + 1 :] = [0] * (m - i - 1)
    return memoryview(depths).toreadonly(), memoryview(letters).toreadonly(), bytes(kinds)


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
    reachable state; the scan decides the full bounded domain.  Periods are
    ordered in depth-first preorder, which is lexicographic order, and for
    each period the start states in ascending order; the first start whose
    run violates gives the lasso.

    The domain is closed when every reachable state is a start, that is,
    has a shortest prefix of at most `max_prefix`; the start walk sees this
    when it ends without meeting a farther state.  A closed domain is
    decided by its Lyndon periods alone, reached by walking only the
    prenecklaces in the same preorder (Fredricksen and Maiorana).  Proof:
    let v have primitive root u = xy with yx Lyndon.  As v^omega equals
    x(yx)^omega, v read from a start s has the Inf set of yx read from
    delta*(s, x), which is reachable and so a start; and yx, the least
    rotation of u, comes no later than v.  So the first violating period is
    itself Lyndon, and the lasso returned and the Inf sets asked about are
    those of walking every period.  A domain that is not closed is walked
    in full.

    The walk's shape depends only on the alphabet size, `max_period` and
    whether the domain is closed, so it is a program built once, without
    recursion, and cached (`_walk_program`): each node's depth, letter and
    whether it is judged or has children.  The scan runs it as one flat
    loop.  Each node carries only its period map, the image of every state
    under the period, composed from its parent's by one `itemgetter`
    gather; the period word is spelled only for the lasso returned.  For
    each period one pass over the map, stamping each state with the start
    whose walk entered it first, finds the cycle every start falls into;
    each state is walked once per period, and only a start that closes a
    new cycle needs a verdict, since the others share the cycle of an
    earlier start.  Only then is an Inf set read: reading the period from a
    state of the cycle, its anchor, visits the states the maps of the
    period's prefixes send it to, and the walk holds those maps down to the
    node, so gathering the anchors from each of them reads the set.
    Verdicts are memoized per Inf set for the whole call, so each distinct
    Inf set costs one call and `violation` must be a pure function of the
    Inf set.

    The start walk runs first, and the budget is charged before any period
    is walked: n steps for each node the walk builds, so every period of
    length at most `max_period` for a domain that is not closed, and for a
    closed one the prenecklaces shorter than `max_period` and the Lyndon
    words of that length (`_period_nodes`).
    """
    r = len(a.alphabet)
    n = a.n_states
    delta = a.delta
    if max_prefix < 0 or max_period < 1:
        return None

    starts: dict[int, tuple[str, ...]] = {}
    closed = True
    for t, s, x in level_order(delta, r, a.initial):
        if s >= 0 and len(starts[s]) >= max_prefix:
            closed = False  # t is reachable but no start
            break  # in level order, every later prefix is at least as long
        starts[t] = () if s < 0 else starts[s] + (a.alphabet[x],)
    start_items = sorted(starts.items())

    # The sum stops at the budget: past it, it can grow to thousands of digits.
    cost = 0
    for nodes in _period_nodes(r, max_period, closed):
        cost += n * nodes
        if cost > budget:
            raise SizeGuard(f"lasso scan needs more than {budget} steps")

    # Maps have a phantom state n that every letter fixes, so each has at
    # least two entries and `itemgetter` over one always returns a tuple.
    step_maps = [tuple(delta[x::r]) + (n,) for x in range(r)]
    # Walks are numbered over the whole call, one per start state; a state
    # stamped at or after a period's first walk was entered in that period.
    stamp = [0] * n
    walk = 0
    verdicts: dict[frozenset[int], bool] = {}

    def violating_prefix(mapping: tuple[int, ...], depth: int) -> tuple[str, ...] | None:
        nonlocal walk
        first_walk = walk + 1
        for x, prefix in start_items:
            if stamp[x] >= first_walk:
                continue  # an earlier start's walk entered it: the same cycle
            walk += 1
            while stamp[x] < first_walk:
                stamp[x] = walk
                x = mapping[x]
            if stamp[x] != walk:
                continue  # the cycle of an earlier start, which did not violate
            # The Inf set: what the maps of the period's prefixes send the
            # cycle's states to; `itemgetter` of one state reads a state, of
            # more a tuple.
            prefix_maps = islice(path, depth)
            y = mapping[x]
            if y == x:
                inf = frozenset(map(itemgetter(x), prefix_maps))
            else:
                anchors = [x]
                while y != x:
                    anchors.append(y)
                    y = mapping[y]
                inf = frozenset(chain.from_iterable(map(itemgetter(*anchors), prefix_maps)))
            verdict = verdicts.get(inf)
            if verdict is None:
                verdict = verdicts[inf] = bool(violation(inf))
            if verdict:
                return prefix
        return None

    # path[d - 1] is the map of the current node's prefix of length d,
    # gathers[d] the `itemgetter` of the last inner node at depth d (the
    # identity at the root), and period[d - 1] its letter at depth d.
    path: list[tuple[int, ...]] = [()] * max_period
    gathers = [itemgetter(*range(n + 1))] * max_period
    period = [0] * max_period
    depths, letters, kinds = _walk_program(r, max_period, closed)
    for d, x, kind in zip(depths, letters, kinds):
        new_map = gathers[d - 1](step_maps[x])
        path[d - 1] = new_map
        period[d - 1] = x
        if kind & _JUDGED:
            prefix = violating_prefix(new_map, d)
            if prefix is not None:
                return LassoWord(prefix, tuple(a.alphabet[i] for i in period[:d]))
        if kind & _INNER:
            gathers[d] = itemgetter(*new_map)
    return None


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


Verdict = tuple[str, LassoWord | None, str]  # a check's status, witness, detail


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
        lines = []
        for c in self.checks:
            line = f"check {c.name} {c.status}"
            if c.witness is not None:
                line += f" {format_lasso(c.witness, self.alphabet)}"
            lines.append(line)
        return "\n".join(lines)


def _first_symdiff_loop(
    prod: ProductAutomaton,
    in_symdiff: Callable[[frozenset[int]], bool],
    t: MullerTable,
    t1: MullerTable,
    meagre: MullerTable,
    loop_budget: int,
) -> frozenset[int] | None:
    """The first loop in `iter_loops` order of the product of F (table `t`)
    and E (table `t1`) that satisfies `in_symdiff`: F and E disagree on
    it and its left projection is an entry of `meagre`.  One
    `_first_violating_loop` search per entry f of `meagre`, over the
    product states above f: a loop whose left projection is f, and whose
    right projection is an entry of `t1` exactly when f is no entry of
    `t`."""
    P, left = prod.automaton, prod.left
    searches = [
        (
            [q for q in range(P.n_states) if left[q] in f],
            lambda c, f=f: {left[q] for q in c} == f,
            lambda zr, in_t=f in t.entries: (zr in t1.entries) != in_t,
        )
        for f in meagre.entries
    ]
    return _first_violating_loop(prod, searches, in_symdiff, loop_budget)


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
    every claimed property of exactly that bundle: the checks of the module
    docstring, in that order.  With `skip_over_budget`, a check that raises
    SizeGuard is reported as skipped with its message instead."""
    if lasso_bound < 1:
        raise ValueError(f"lasso_bound must be at least 1, got {lasso_bound}")
    analysis = analyze(a)
    witness = build_baire_witness(a, t, analysis)
    a1, t1 = witness.open_muller
    _, meagre_table = witness.meagre_complement_muller
    meagre_buchi = witness.meagre_complement_buchi
    unpruned = witness.meagre_buchi_unpruned
    results: dict[str, CheckResult] = {}

    def symdiff_symbolic() -> Verdict:
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
            return "pass", None, ""
        return "fail", None, f"open table differs on {sorted(map(sorted, wrong))}"

    # One product serves both symdiff routes; over budget, both re-raise it.
    try:
        prod1 = product(a, a1, budget=product_budget)
    except SizeGuard as e:
        prod1 = e

    def symdiff_route() -> tuple[ProductAutomaton, Callable[[frozenset[int]], bool]]:
        if isinstance(prod1, SizeGuard):
            raise prod1
        left, right = prod1.left, prod1.right

        def in_symdiff(z: frozenset[int]) -> bool:
            zl = frozenset(left[q] for q in z)
            zr = frozenset(right[q] for q in z)
            return ((zl in t.entries) != (zr in t1.entries)) and zl in meagre_table.entries

        return prod1, in_symdiff

    def symdiff_loops(prod: ProductAutomaton, in_symdiff) -> Verdict:
        z = _first_symdiff_loop(prod, in_symdiff, t, t1, meagre_table, loop_budget)
        if z is None:
            return "pass", None, ""
        w = loop_lasso(prod.automaton, z)
        in_f = accepts_muller(a, t, w)
        in_e = accepts_muller(a1, t1, w)
        in_meagre_complement = accepts_muller(a, meagre_table, w)
        if not ((in_f != in_e) and in_meagre_complement):
            raise RuntimeError("loop witness failed re-check")
        return "fail", w, ""

    def symdiff_lassos(prod: ProductAutomaton, in_symdiff) -> Verdict:
        w = bounded_lasso_scan(prod.automaton, in_symdiff, lasso_bound, lasso_bound)
        if w is not None:
            return "fail", w, ""
        covered = lasso_domain_size(len(a.alphabet), lasso_bound, lasso_bound)
        return "pass", None, f"covers {covered} lassos"

    def symdiff_agreement() -> Verdict:
        routes = (results["symdiff-loops"].status, results["symdiff-lassos"].status)
        if "skip" in routes:
            return "skip", None, "a route was skipped"
        return ("pass" if routes[0] == routes[1] else "fail"), None, ""

    def same_language(
        aut: DetAutomaton, table: MullerTable, buchi, budget: int, aut_analysis=None
    ) -> Verdict:
        v = maximal_muller_buchi_equiv(
            aut, table, *buchi, product_budget=budget, analysis=aut_analysis
        )
        return ("pass" if v.holds else "fail"), v.counterexample, ""

    def b1_weak() -> Verdict:
        # A straddling loop lies inside one reachable SCC, which then
        # straddles too; so checking those SCCs is exact and polynomial.
        b1, b1_accepting = witness.open_buchi
        acc = b1_accepting.accepting
        reachable = [s for s, _, _ in level_order(b1.delta, len(b1.alphabet), b1.initial)]
        for comp in cyclic_sccs(b1, reachable):
            if not (comp <= acc or comp.isdisjoint(acc)):
                return "fail", None, f"straddling loop {sorted(comp)}"
        return "pass", None, ""

    def b2_bound() -> Verdict:
        expected = buchi_state_bound(a, meagre_table, analysis)
        n = a.n_states
        ok = unpruned == expected and expected <= n + n * n
        return ("pass" if ok else "fail"), None, f"unpruned {unpruned}, bound {expected}"

    for name, check in (
        ("symdiff-symbolic", symdiff_symbolic),
        ("symdiff-loops", lambda: symdiff_loops(*symdiff_route())),
        ("symdiff-lassos", lambda: symdiff_lassos(*symdiff_route())),
        ("symdiff-agreement", symdiff_agreement),
        # E's Buchi form reuses E's automaton, so this product is the
        # diagonal: at most |E| states, whatever `product_budget` is.
        (
            "b1-language",
            lambda: same_language(a1, t1, witness.open_buchi, max(product_budget, a1.n_states)),
        ),
        ("b1-weak", b1_weak),
        # The meagre complement reuses the input automaton, and so its analysis.
        (
            "b2-language",
            lambda: same_language(a, meagre_table, meagre_buchi, product_budget, analysis),
        ),
        ("b2-bound", b2_bound),
    ):
        try:
            results[name] = CheckResult(name, *check())
        except SizeGuard as e:
            if not skip_over_budget:
                raise
            results[name] = CheckResult(name, "skip", detail=str(e))

    return WitnessReport(a.alphabet, unpruned, tuple(results.values()))
