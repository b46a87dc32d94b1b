import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_baire import (
    DetAutomaton,
    LassoWord,
    SizeGuard,
    analyze,
    enumerate_loops,
    inf_set,
    is_loop,
    iter_loops,
    run,
)
from omega_baire import loops
from omega_baire.loops import cyclic_sccs, level_order, scc_decompose
from conftest import brute_is_loop, lassos_cover_loops, random_automaton


def single_state_automaton() -> DetAutomaton:
    return DetAutomaton(alphabet=("a", "b"), n_states=1, initial=0, delta=(0, 0))


class TestAnalyze:
    def test_ex1(self, ex1):
        an = analyze(ex1)
        assert [set(s) for s in an.sccs] == [{0, 1}]
        assert an.terminal == {0}
        assert an.condensation_edges == frozenset()
        assert an.reachable == {0, 1}

    def test_ex2(self, ex2):
        an = analyze(ex2)
        assert [set(s) for s in an.sccs] == [{0}, {1}, {2}]
        assert an.terminal == {1, 2}
        assert an.condensation_edges == {(0, 1), (0, 2)}

    def test_single_state(self):
        an = analyze(single_state_automaton())
        assert [set(s) for s in an.sccs] == [{0}]
        assert an.terminal == {0}

    def test_ids_ordered_by_smallest_member(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_automaton(rng, rng.randint(2, 9))
            an = analyze(a)
            assert [min(s) for s in an.sccs] == sorted(min(s) for s in an.sccs)

    def test_invariants_random(self):
        rng = random.Random(23)
        for _ in range(150):
            a = random_automaton(rng, rng.randint(1, 9), rng.randint(1, 3))
            an = analyze(a)
            # partition
            assert sorted(s for scc in an.sccs for s in scc) == list(range(a.n_states))
            assert all(an.sccs[an.scc_of[s]] >= {s} for s in range(a.n_states))
            # irreflexive, acyclic via topological reasoning: ids follow min
            assert all(u != v for u, v in an.condensation_edges)
            # terminal iff no outgoing edge
            outgoing = {u for u, _ in an.condensation_edges}
            for i in range(len(an.sccs)):
                assert (i in an.terminal) == (i not in outgoing)
            # Property 1.2: terminal SCCs absorb every symbol
            r = len(a.alphabet)
            for i in an.terminal:
                for z in an.sccs[i]:
                    for x in range(r):
                        assert a.delta[z * r + x] in an.sccs[i]

    def test_condensation_acyclic(self):
        rng = random.Random(29)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 8))
            an = analyze(a)
            edges = an.condensation_edges
            # Kahn peel: acyclic iff everything peels
            ids = set(range(len(an.sccs)))
            while ids:
                sinks = {i for i in ids if not any(u == i and v in ids for u, v in edges)}
                assert sinks, "cycle in condensation graph"
                ids -= sinks

    def test_property_1_1_intermediate_states_stay(self):
        # Walks that start and end inside an SCC never leave it.
        rng = random.Random(31)
        for _ in range(25):
            a = random_automaton(rng, rng.randint(1, 6))
            an = analyze(a)
            words = [
                w
                for length in range(1, 7)
                for w in itertools.product(a.alphabet, repeat=length)
            ]
            for scc in an.sccs:
                for z in scc:
                    for w in words:
                        if run(a, z, w) in scc:
                            cur = z
                            for tok in w:
                                cur = run(a, cur, (tok,))
                                assert cur in scc


class TestSharedWalks:
    @staticmethod
    def _reach_within(a, src, allowed):
        r = len(a.alphabet)
        seen, stack = {src}, [src]
        while stack:
            s = stack.pop()
            for x in range(r):
                t = a.delta[s * r + x]
                if t in allowed and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def test_scc_decompose_matches_mutual_reachability(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 9)
            a = random_automaton(rng, n, rng.randint(1, 3))
            allowed = {s for s in range(n) if rng.random() < 0.7}
            for subset in (None, allowed):
                inside = set(range(n)) if subset is None else subset
                fwd = {s: self._reach_within(a, s, inside) for s in inside}
                expected = sorted(
                    {frozenset(t for t in fwd[s] if s in fwd[t]) for s in inside},
                    key=min,
                )
                assert scc_decompose(a, subset) == expected

    def test_level_order_levels_and_paths(self):
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 9)
            a = random_automaton(rng, n, rng.randint(1, 3))
            r = len(a.alphabet)
            start = rng.randrange(n)
            allowed = {s for s in range(n) if rng.random() < 0.7}
            walk = list(level_order(a.delta, r, start, allowed))
            assert walk[0] == (start, -1, -1)
            parent = {t: (s, x) for t, s, x in walk}
            assert len(parent) == len(walk)
            assert set(parent) == self._reach_within(a, start, allowed) | {start}

            def depth(s):
                d = 0
                while s != start:
                    p, x = parent[s]
                    assert a.delta[p * r + x] == s
                    s, d = p, d + 1
                return d

            depths = [depth(s) for s in parent]
            assert depths == sorted(depths)


class TestIsLoop:
    def test_examples(self, ex1, ex2):
        assert is_loop(ex1, {0})
        assert not is_loop(ex2, {0})
        assert not is_loop(ex1, set())

    def test_unreachable_set_is_not_a_loop(self):
        # State 1 loops on itself but nothing reaches it.
        a = DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=(0, 1))
        assert not is_loop(a, {1})

    def test_out_of_range_raises(self, ex1):
        from omega_baire import BadStateIndex

        with pytest.raises(BadStateIndex):
            is_loop(ex1, {5})

    def test_matches_literal_definition(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_automaton(rng, n, rng.randint(1, 2))
            for mask in range(1 << n):
                z = frozenset(s for s in range(n) if mask >> s & 1)
                assert is_loop(a, z) == brute_is_loop(a, z), (a, sorted(z))

    def test_scc_entries_skip_the_bitmask_test(self):
        # Given an analysis, a set equal to an SCC is decided by its size
        # and self-transition, without a walk or a Tarjan pass; any other
        # set, and any call without an analysis, takes the Tarjan pass.  All
        # agree.
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(1, 9)
            a = random_automaton(rng, n, rng.randint(1, 2))
            an = analyze(a)
            others = {frozenset(s for s in range(n) if rng.random() < 0.5) for _ in range(12)}
            for z in [*an.sccs, *others]:
                expected = brute_is_loop(a, z)
                assert is_loop(a, z) == expected, (a, sorted(z))
                if an.scc_id_of_set(z) is None:
                    assert is_loop(a, z, an) == expected, (a, sorted(z))
                    continue
                with mock.patch.object(loops, "level_order", side_effect=AssertionError), \
                        mock.patch.object(loops, "_tarjan", side_effect=AssertionError):
                    assert is_loop(a, z, an) == expected, (a, sorted(z))

    @pytest.mark.parametrize(
        "a, z",
        [
            # A chain 0 -> 1 into the cycle 2 <-> 3.
            (DetAutomaton(("a",), 4, 0, [1, 2, 3, 2]), {0, 1, 2, 3}),
            # The cycles 0 <-> 1 and 2 <-> 3 on a, joined one way by b from 0.
            (DetAutomaton(("a", "b"), 4, 0, [1, 2, 0, 1, 3, 2, 2, 3]), {0, 1, 2, 3}),
            # The cycle 0 <-> 1 and state 2, which goes to 0 and is unreachable.
            (DetAutomaton(("a",), 3, 0, [1, 0, 0]), {0, 1, 2}),
        ],
    )
    def test_other_sets_take_one_component_of_one_tarjan_pass(self, a, z):
        # Each set is reachable, no SCC and not strongly connected, so the
        # first component Tarjan completes inside it is a proper subset.
        # That component decides it: no walk, no second pass or component.
        real = loops._tarjan
        passes: list[frozenset[int]] = []
        taken: list[frozenset[int]] = []

        def spy(a, allowed=None):
            passes.append(frozenset(allowed))
            for comp in real(a, allowed):
                taken.append(comp)
                yield comp

        an = analyze(a)
        assert an.scc_id_of_set(z) is None and not brute_is_loop(a, frozenset(z))
        with mock.patch.object(loops, "_tarjan", spy), \
                mock.patch.object(loops, "level_order", side_effect=AssertionError):
            assert not is_loop(a, z, an)
        assert passes == [z]
        assert len(taken) == 1 and taken[0] < z


def mask_is_loop(a: DetAutomaton, z: frozenset[int]) -> bool:
    """Reference loop test by bitmask closures: nonempty, reachable, and
    strongly connected by `_strongly_connected` over `_local_masks`, which
    take Θ(|z|²) bits."""
    if not z or z.isdisjoint(analyze(a).reachable):
        return False
    succ, pred = loops._local_masks(a, sorted(z))
    return loops._strongly_connected(succ, pred, (1 << len(z)) - 1)


class TestIsLoopWalks:
    def test_agrees_with_the_bitmask_test(self):
        # Random sets, most of them no loop, with and without an analysis
        # (which decides a set equal to an SCC by its size).
        rng = random.Random(47)
        for _ in range(3000):
            n = rng.randint(1, 12)
            a = random_automaton(rng, n, rng.randint(1, 3))
            an = analyze(a)
            z = frozenset(rng.sample(range(n), rng.randint(1, n)))
            expected = mask_is_loop(a, z)
            assert is_loop(a, z) == expected, (a, sorted(z))
            assert is_loop(a, z, an) == expected, (a, sorted(z))

    def test_peak_memory_linear_on_a_cycle_minus_one_state(self):
        # The forward walk reaches the whole set, and nothing in it reaches
        # back to its first state.
        k = 30_000
        a = DetAutomaton(("a",), k, 0, [(s + 1) % k for s in range(k)])
        z = frozenset(range(1, k))
        tracemalloc.start()
        try:
            assert not is_loop(a, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / k < 400

    def test_small_set_of_a_large_automaton_takes_a_few_bytes_a_state(self):
        # Two states of a 200,000-cycle: the pass keeps one 4-byte mark per
        # state of the automaton, and per-state lists would take 8 bytes
        # each.
        k = 200_000
        a = DetAutomaton(("a",), k, 0, [(s + 1) % k for s in range(k)])
        an = analyze(a)
        tracemalloc.start()
        try:
            assert not is_loop(a, {0, 1}, an)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / k < 6


class TestEnumerateLoops:
    def test_examples(self, ex1, ex2):
        assert enumerate_loops(ex1) == [{0}, {1}, {0, 1}]
        assert enumerate_loops(ex2) == [{1}, {2}]
        assert enumerate_loops(single_state_automaton()) == [{0}]

    def test_size_guard(self, ex1):
        with pytest.raises(SizeGuard):
            enumerate_loops(ex1, budget=2)

    def test_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 8)
            a = random_automaton(rng, n)
            expected = [
                frozenset(s for s in range(n) if mask >> s & 1)
                for mask in range(1, 1 << n)
                if brute_is_loop(a, frozenset(s for s in range(n) if mask >> s & 1))
            ]
            assert set(enumerate_loops(a)) == set(expected)

    def test_every_loop_inside_exactly_one_scc(self):
        rng = random.Random(43)
        for _ in range(30):
            a = random_automaton(rng, rng.randint(1, 10))
            an = analyze(a)
            for z in enumerate_loops(a):
                containers = [scc for scc in an.sccs if z <= scc]
                assert len(containers) == 1

    def test_equals_inf_image_over_bounded_lassos(self):
        # The loops are exactly the Inf sets of lassos with both parts
        # bounded by twice the state count.
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randint(1, 5)
            a = random_automaton(rng, n)
            assert set(enumerate_loops(a)) == lassos_cover_loops(a, 2 * n)

    def test_inf_image_matches_direct_enumeration_tiny(self):
        # Validate the prefix-collapsing shortcut against literal lassos.
        rng = random.Random(53)
        for _ in range(6):
            n = rng.randint(1, 3)
            a = random_automaton(rng, n)
            bound = 2 * n
            words = [
                w
                for length in range(bound + 1)
                for w in itertools.product(a.alphabet, repeat=length)
            ]
            direct = {
                inf_set(a, LassoWord(u, v)) for u in words for v in words if v
            }
            assert lassos_cover_loops(a, bound) == direct


@st.composite
def small_automata(draw) -> DetAutomaton:
    n = draw(st.integers(1, 9))
    r = draw(st.integers(1, 3))
    flat = tuple(draw(st.integers(0, n - 1)) for _ in range(n * r))
    return DetAutomaton(alphabet=tuple("abc"[:r]), n_states=n, initial=0, delta=flat)


# 0 <-> 1 with no self-loop (so neither singleton is a loop), 2 unreachable.
@example(DetAutomaton(alphabet=("a",), n_states=3, initial=0, delta=(1, 0, 2)))
# a chain of singletons without self-loops into a self-looping sink
@example(DetAutomaton(alphabet=("a", "b"), n_states=4, initial=0, delta=(1, 2, 2, 3, 3, 3, 3, 3)))
@given(small_automata())
@settings(max_examples=120, deadline=None)
def test_mask_kernel_matches_literal_loops(a):
    # Every subset against the literal definition: enumerate_loops lists the
    # loops in ascending mask order, iter_loops yields each reachable SCC's
    # loops in ascending mask order with the SCCs in id order, and is_loop
    # agrees on every subset.
    n = a.n_states
    subsets = [frozenset(s for s in range(n) if mask >> s & 1) for mask in range(1, 1 << n)]
    literal = [z for z in subsets if brute_is_loop(a, z)]
    assert enumerate_loops(a) == literal
    an = analyze(a)
    by_scc = [
        [z for z in literal if z <= scc]
        for scc in an.sccs
        if not scc.isdisjoint(an.reachable)
    ]
    assert list(iter_loops(a)) == [z for group in by_scc for z in group]
    loops = set(literal)
    for z in subsets:
        assert is_loop(a, z) == (z in loops)


def test_cyclic_sccs_are_the_maximal_loops_inside_a_set():
    # Inside a set of reachable states the loops are the sets that carry a
    # closed covering walk; the maximal ones are exactly the cycle-carrying
    # SCCs of the induced subgraph, listed by smallest member.
    rng = random.Random(79)
    for _ in range(150):
        a = random_automaton(rng, rng.randint(1, 8), rng.randint(1, 3))
        allowed = sorted(s for s in analyze(a).reachable if rng.random() < 0.7)
        subsets = [
            frozenset(allowed[i] for i in range(len(allowed)) if mask >> i & 1)
            for mask in range(1, 1 << len(allowed))
        ]
        loops = [z for z in subsets if brute_is_loop(a, z)]
        maximal = [z for z in loops if not any(z < y for y in loops)]
        assert list(cyclic_sccs(a, allowed)) == sorted(maximal, key=min)
