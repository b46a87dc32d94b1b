"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive everything from the raw transition
table (literal definitions, bounded enumeration) so they share no code path
with the implementations they check.
"""

from __future__ import annotations

import os
import random
from unittest import mock

import pytest
from hypothesis import settings

from omega_baire import DetAutomaton, LassoWord, MullerTable
import omega_baire.to_buchi as to_buchi

# `HYPOTHESIS_PROFILE=ci` makes every property test draw the same examples
# on every run, so that a failure seen in CI reproduces exactly.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def pinned_kernel(use_numpy: bool):
    """A context that pins the translation kernel through its one choice
    point, `to_buchi._numpy_kernel`: numpy if `use_numpy`, else pure Python,
    whatever the output's size and whether numpy is imported."""
    return mock.patch.object(to_buchi, "_numpy_kernel", lambda cells: use_numpy)


def make_ex1() -> DetAutomaton:
    """Two states; every state goes to 0 on a and to 1 on b."""
    return DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(0, 1, 0, 1))


def make_ex2() -> DetAutomaton:
    """Three states; 0 branches to the absorbing states 1 (on a) and 2 (on b)."""
    return DetAutomaton(
        alphabet=("a", "b"), n_states=3, initial=0, delta=(1, 2, 1, 1, 2, 2)
    )


def make_ex3() -> DetAutomaton:
    """Two states; a swaps them, b stays put."""
    return DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(1, 0, 0, 1))


@pytest.fixture
def ex1() -> DetAutomaton:
    return make_ex1()


@pytest.fixture
def ex2() -> DetAutomaton:
    return make_ex2()


@pytest.fixture
def ex3() -> DetAutomaton:
    return make_ex3()


def random_automaton(rng: random.Random, n: int, alphabet_size: int = 2) -> DetAutomaton:
    tokens = tuple("abcdefghij"[:alphabet_size])
    flat = tuple(rng.randrange(n) for _ in range(n * alphabet_size))
    return DetAutomaton(alphabet=tokens, n_states=n, initial=0, delta=flat)


def chain_plus_random(n: int, seed: int = 41) -> DetAutomaton:
    """One n-state SCC: letter a walks a cycle through every state, letter b
    jumps to a state drawn from `random.Random(seed)`.  Its layered
    translation has n + n^2 states before pruning."""
    rng = random.Random(seed)
    delta = [x for s in range(n) for x in ((s + 1) % n, rng.randrange(n))]
    return DetAutomaton(alphabet=("a", "b"), n_states=n, initial=0, delta=delta)


def random_table(rng: random.Random, n: int, max_entries: int = 3) -> MullerTable:
    count = rng.randint(0, max_entries)
    entries = set()
    for _ in range(count):
        mask = rng.randrange(1 << n)
        entries.add(frozenset(s for s in range(n) if mask >> s & 1))
    return MullerTable(frozenset(entries))


def random_lasso(rng: random.Random, alphabet, max_u: int = 6, max_v: int = 6) -> LassoWord:
    u = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_u)))
    v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_v)))
    return LassoWord(u, v)


# ---------------------------------------------------------------------------
# Independent oracles


def brute_inf_set(a: DetAutomaton, w: LassoWord) -> frozenset[int]:
    """Inf set by plain unrolling: read the prefix, then enough period copies
    that the anchor state must repeat, and collect the states strictly inside
    one anchor cycle."""
    s = a.initial
    for tok in w.prefix:
        s = a.delta[s * len(a.alphabet) + a.symbol_index[tok]]
    return _brute_inf_from(a, s, w.period)


def _brute_inf_from(a: DetAutomaton, s: int, period) -> frozenset[int]:
    anchors = [s]
    traces = []
    for _ in range(a.n_states + 1):
        trace = []
        for tok in period:
            s = a.delta[s * len(a.alphabet) + a.symbol_index[tok]]
            trace.append(s)
        traces.append(trace)
        anchors.append(s)
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            if anchors[i] == anchors[j]:
                states = set()
                for k in range(i, j):
                    states.update(traces[k])
                return frozenset(states)
    raise AssertionError("anchor state never repeated")


def lassos_cover_loops(a: DetAutomaton, bound: int) -> set[frozenset[int]]:
    """Inf sets of all lassos with |prefix|, |period| <= bound.

    Membership of a lasso depends on the prefix only through the state it
    reaches, so prefixes are collapsed to the states reachable within
    `bound` steps.
    """
    r = len(a.alphabet)
    starts = layer = {a.initial}
    for _ in range(bound):
        layer = {a.delta[s * r + x] for s in layer for x in range(r)}
        starts = starts | layer
    seen: set[frozenset[int]] = set()
    periods: list[tuple[str, ...]] = [()]
    for _ in range(bound):
        periods = [v + (tok,) for v in periods for tok in a.alphabet]
        for v in periods:
            for s in starts:
                seen.add(_brute_inf_from(a, s, v))
    return seen


def brute_is_loop(a: DetAutomaton, z: frozenset[int]) -> bool:
    """Literal loop definition: nonempty, reachable, and for every ordered
    pair of members there is a connecting walk that stays inside the set."""
    if not z:
        return False
    r = len(a.alphabet)

    reach = {a.initial}
    while True:
        new = {a.delta[s * r + x] for s in reach for x in range(r)} - reach
        if not new:
            break
        reach |= new
    if not (z & reach):
        return False

    def inside_reachable(src: int) -> set[int]:
        seen: set[int] = set()
        frontier = [src]
        while frontier:
            s = frontier.pop()
            for x in range(r):
                t = a.delta[s * r + x]
                if t in z and t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    return all(z <= inside_reachable(s) for s in z)


def exhaustive_lassos(alphabet, max_prefix: int, max_period: int):
    """All lassos with |prefix| <= max_prefix and 1 <= |period| <= max_period,
    prefix-major in shortlex order: the literal domain that
    `bounded_lasso_scan` collapses."""
    alphabet = tuple(alphabet)

    def words(lo: int, hi: int):
        layer: list[tuple[str, ...]] = [()]
        for length in range(hi + 1):
            if length >= lo:
                yield from layer
            if length < hi:
                layer = [w + (tok,) for w in layer for tok in alphabet]

    for u in words(0, max_prefix):
        for v in words(1, max_period):
            yield LassoWord(u, v)


def accepts_by_brute_inf(a: DetAutomaton, acc, w: LassoWord) -> bool:
    inf = brute_inf_set(a, w)
    if isinstance(acc, MullerTable):
        return inf in acc.entries
    return not inf.isdisjoint(acc.accepting)
