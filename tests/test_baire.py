import random

import pytest

from omega_baire import (
    BadLoop,
    BuchiSet,
    DetAutomaton,
    LassoWord,
    LoopDensity,
    MullerTable,
    TriState,
    accepts_buchi,
    accepts_muller,
    analyze,
    build_baire_witness,
    build_meagre_complement,
    build_open_witness,
    build_weak_buchi_open,
    classify_loop_density,
    classify_meagre,
    classify_openness,
    enumerate_loops,
    run,
)
from conftest import brute_is_loop, random_automaton, random_lasso, random_table


def merged_states(witness):
    return {s for s, o in witness.origin.items() if isinstance(o, frozenset)}


class TestBuildOpenWitness:
    def test_ex1_empty_table(self, ex1):
        w = build_open_witness(ex1, MullerTable.of({0}))
        # whole automaton is one terminal SCC: an initial copy plus one merge
        assert w.automaton.n_states == 2
        assert w.table.entries == frozenset()
        assert merged_states(w) == {1}
        assert w.origin[0] == 0
        assert w.origin[1] == frozenset({0, 1})
        # the merged state absorbs and the copy feeds into it
        assert run(w.automaton, 0, "a") == 1
        assert run(w.automaton, 0, "b") == 1
        assert run(w.automaton, 1, "a") == 1
        assert run(w.automaton, 1, "b") == 1
        # empty table means the empty language
        for period in ("a", "b", "ab"):
            assert not accepts_muller(w.automaton, w.table, LassoWord("", period))

    def test_ex2_single_entry(self, ex2):
        w = build_open_witness(ex2, MullerTable.of({1}))
        assert w.automaton.n_states == 3
        assert w.origin == {0: 0, 1: frozenset({1}), 2: frozenset({2})}
        assert w.table.entries == frozenset({frozenset({1})})
        # language is exactly `first symbol a`
        assert accepts_muller(w.automaton, w.table, LassoWord("a", "b"))
        assert accepts_muller(w.automaton, w.table, LassoWord("", "a"))
        assert not accepts_muller(w.automaton, w.table, LassoWord("b", "a"))

    def test_ex2_both_entries_full_language(self, ex2):
        w = build_open_witness(ex2, MullerTable.of({1}, {2}))
        assert len(w.table.entries) == 2
        rng = random.Random(1)
        for _ in range(50):
            assert accepts_muller(w.automaton, w.table, random_lasso(rng, ("a", "b")))

    def test_non_terminal_entries_dropped(self, ex2):
        w = build_open_witness(ex2, MullerTable.of({0}, {0, 1}, {1}))
        assert w.table.entries == frozenset({frozenset({1})})

    def test_size_bound(self):
        rng = random.Random(3)
        for _ in range(100):
            a = random_automaton(rng, rng.randint(1, 9))
            an = analyze(a)
            w = build_open_witness(a, random_table(rng, a.n_states))
            assert w.automaton.n_states <= a.n_states + len(an.terminal) + 1

    def test_merged_states_absorb(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 7))
            w = build_open_witness(a, random_table(rng, a.n_states))
            r = len(a.alphabet)
            for m in merged_states(w):
                for x in range(r):
                    assert w.automaton.delta[m * r + x] == m

    def test_quotient_soundness_vs_expanded_table(self):
        # Merging agrees with expanding each terminal-SCC entry to all of
        # its subsets on the original automaton.
        rng = random.Random(7)
        for _ in range(80):
            a = random_automaton(rng, rng.randint(2, 7))
            an = analyze(a)
            t = random_table(rng, a.n_states)
            term_entries = [e for e in t.entries if an.is_terminal_set(e)]
            expanded = set()
            for z in term_entries:
                members = sorted(z)
                for mask in range(1 << len(members)):
                    expanded.add(
                        frozenset(m for i, m in enumerate(members) if mask >> i & 1)
                    )
            expanded_table = MullerTable(frozenset(expanded))
            w = build_open_witness(a, t, an)
            for _ in range(40):
                lasso = random_lasso(rng, a.alphabet, 5, 5)
                assert accepts_muller(w.automaton, w.table, lasso) == accepts_muller(
                    a, expanded_table, lasso
                )

    def test_membership_depends_only_on_reaching_accepting_merge(self):
        # Openness: acceptance is equivalent to the run ever entering an
        # accepting merged state.
        rng = random.Random(11)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(2, 7))
            w = build_open_witness(a, random_table(rng, a.n_states))
            targets = {next(iter(e)) for e in w.table.entries}
            for _ in range(40):
                lasso = random_lasso(rng, a.alphabet, 5, 5)
                horizon = len(lasso.prefix) + (w.automaton.n_states + 1) * len(lasso.period)
                cur = w.automaton.initial
                reached = cur in targets
                for i in range(horizon):
                    cur = run(w.automaton, cur, (lasso.symbol_at(i),))
                    if cur in targets:
                        reached = True
                        break
                assert accepts_muller(w.automaton, w.table, lasso) == reached

    def test_origin_maps_are_read_only(self, ex2):
        t = MullerTable.of({1})
        for witness in (build_open_witness(ex2, t), build_weak_buchi_open(ex2, t)):
            with pytest.raises(TypeError):
                witness.origin[99] = 5
            with pytest.raises(TypeError):
                del witness.origin[0]
            assert witness.origin[0] == 0


class TestMeagreComplement:
    def test_ex1(self, ex1):
        a2, t2 = build_meagre_complement(ex1)
        assert a2 is ex1
        assert t2.entries == frozenset({frozenset({0, 1})})

    def test_ex2(self, ex2):
        _, t2 = build_meagre_complement(ex2)
        assert t2.entries == frozenset({frozenset({1}), frozenset({2})})

    def test_one_state(self):
        a = DetAutomaton(alphabet=("a",), n_states=1, initial=0, delta=(0,))
        _, t2 = build_meagre_complement(a)
        assert t2.entries == frozenset({frozenset({0})})
        # the complement language is empty: every word is accepted
        assert accepts_muller(a, t2, LassoWord("", "a"))


class TestWeakBuchi:
    def test_ex2_single(self, ex2):
        w = build_weak_buchi_open(ex2, MullerTable.of({1}))
        assert w.accepting.accepting == {1}
        assert accepts_buchi(w.automaton, w.accepting, LassoWord("a", "a"))
        assert not accepts_buchi(w.automaton, w.accepting, LassoWord("b", "a"))

    def test_ex1_empty(self, ex1):
        w = build_weak_buchi_open(ex1, MullerTable.of({0}))
        assert w.accepting.accepting == frozenset()

    def test_ex2_full(self, ex2):
        w = build_weak_buchi_open(ex2, MullerTable.of({1}, {2}))
        assert len(w.accepting.accepting) == 2
        rng = random.Random(13)
        for _ in range(30):
            assert accepts_buchi(w.automaton, w.accepting, random_lasso(rng, ("a", "b")))

    def test_weakness_and_muller_agreement(self):
        rng = random.Random(17)
        for _ in range(80):
            a = random_automaton(rng, rng.randint(1, 10))
            t = random_table(rng, a.n_states)
            open_w = build_open_witness(a, t)
            weak = build_weak_buchi_open(a, t)
            acc = weak.accepting.accepting
            for z in enumerate_loops(weak.automaton):
                assert z <= acc or z.isdisjoint(acc)
                assert (z in open_w.table.entries) == (not z.isdisjoint(acc))


class TestBaireWitnessBundle:
    def test_bundle_consistent(self, ex2):
        bundle = build_baire_witness(ex2, MullerTable.of({1}))
        a1, t1 = bundle.open_muller
        b1, acc1 = bundle.open_buchi
        assert a1 == b1
        assert {next(iter(e)) for e in t1.entries} == set(acc1.accepting)
        a2, t2 = bundle.meagre_complement_muller
        assert a2 == ex2
        assert t2.entries == frozenset({frozenset({1}), frozenset({2})})
        b2, acc2 = bundle.meagre_complement_buchi
        assert bundle.meagre_buchi_unpruned == 3 + 1 + 1
        rng = random.Random(19)
        for _ in range(60):
            w = random_lasso(rng, ("a", "b"))
            assert accepts_muller(a2, t2, w) == accepts_buchi(b2, acc2, w)


class TestClassifiers:
    def test_meagre_examples(self, ex1, ex2):
        assert classify_meagre(ex1, MullerTable.of({0})) is TriState.YES
        assert classify_meagre(ex2, MullerTable.of({1})) is TriState.NO

    def test_meagre_ignores_non_loop_entries(self, ex2):
        # {0} is not a loop; {1,2} is not an SCC: both inert
        t = MullerTable.of({0}, {1, 2})
        assert classify_meagre(ex2, t) is TriState.YES

    def test_meagre_ignores_unreachable_terminal_scc(self):
        # state 1 is a terminal SCC but unreachable
        a = DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=(0, 1))
        assert classify_meagre(a, MullerTable.of({1})) is TriState.YES

    def test_openness_examples(self, ex2):
        assert classify_openness(ex2, MullerTable.of({1})) is TriState.YES
        # {0} is not a loop of ex2, so the loop entries are empty and the
        # (empty) language is open
        assert classify_openness(ex2, MullerTable.of({0})) is TriState.YES

    def test_openness_undecided_for_non_terminal_loop(self):
        # state 0 has a self-loop but can escape to the terminal state 1
        a = DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(0, 1, 1, 1))
        assert classify_openness(a, MullerTable.of({0})) is TriState.UNDECIDED

    def test_openness_empty_table(self, ex1):
        assert classify_openness(ex1, MullerTable.of()) is TriState.YES

    def test_openness_requires_all_subloops(self, ex1):
        # {0,1} is the terminal SCC but {0} and {1} are loops inside it
        assert classify_openness(ex1, MullerTable.of({0, 1})) is TriState.UNDECIDED
        t = MullerTable.of({0}, {1}, {0, 1})
        assert classify_openness(ex1, t) is TriState.YES

    def test_density_examples(self, ex1, ex2):
        assert classify_loop_density(ex1, 0, {0, 1}) is LoopDensity.DENSE
        assert classify_loop_density(ex1, 0, {0}) is LoopDensity.NOWHERE_DENSE
        assert classify_loop_density(ex2, 1, {1}) is LoopDensity.DENSE

    def test_density_bad_loop(self, ex2):
        with pytest.raises(BadLoop):
            classify_loop_density(ex2, 0, {0})
        with pytest.raises(BadLoop):
            classify_loop_density(ex2, 2, {1})

    def test_openness_matches_brute_force(self):
        # Literal reading of the shape: every loop entry lies in a terminal
        # SCC, and every subset of such an SCC that is a loop is an entry.
        def subsets(states):
            members = sorted(states)
            return [
                frozenset(m for i, m in enumerate(members) if mask >> i & 1)
                for mask in range(1, 1 << len(members))
            ]

        rng = random.Random(29)
        verdicts = []
        for _ in range(300):
            a = random_automaton(rng, rng.randint(1, 8), rng.randint(1, 3))
            an = analyze(a)
            entries = set()
            for tid in an.terminal:
                if rng.random() < 0.6:
                    entries.update(z for z in subsets(an.sccs[tid]) if rng.random() < 0.9)
            if rng.random() < 0.2:
                entries |= random_table(rng, a.n_states).entries
            t = MullerTable(frozenset(entries))
            loop_entries = [e for e in t.entries if brute_is_loop(a, e)]
            homes = {an.scc_of[min(e)] for e in loop_entries}
            shaped = homes <= an.terminal and all(
                e <= an.sccs[an.scc_of[min(e)]] for e in loop_entries
            )
            if shaped:
                shaped = all(
                    z in t.entries
                    for tid in homes
                    for z in subsets(an.sccs[tid])
                    if brute_is_loop(a, z)
                )
            expected = TriState.YES if shaped else TriState.UNDECIDED
            assert classify_openness(a, t, an) is expected, (a, sorted(map(sorted, t.entries)))
            verdicts.append(expected)
        assert verdicts.count(TriState.YES) >= 40
        assert verdicts.count(TriState.UNDECIDED) >= 40

    def test_openness_at_scale(self):
        # A 60-state terminal cycle: 2^60 subsets, none of which needs to be
        # listed.  Without a chord the cycle is its only loop; the chord
        # 30 -> 0 on b closes the sub-cycle {0..30}, which is not an entry.
        n = 60
        cycle = DetAutomaton(("a",), n, 0, tuple((s + 1) % n for s in range(n)))
        everything = MullerTable.of(set(range(n)))
        assert classify_openness(cycle, everything) is TriState.YES
        chord = [(s + 1) % n for s in range(n) for _ in "ab"]
        chord[2 * 30 + 1] = 0
        a = DetAutomaton(("a", "b"), n, 0, tuple(chord))
        assert classify_openness(a, everything) is TriState.UNDECIDED

    def test_meagre_matches_open_witness_emptiness(self):
        # The open witness language is empty exactly when the language is
        # meagre (no reachable terminal-SCC entry).
        rng = random.Random(23)
        for _ in range(80):
            a = random_automaton(rng, rng.randint(2, 7))
            t = random_table(rng, a.n_states)
            verdict = classify_meagre(a, t)
            w = build_open_witness(a, t)
            reach = analyze(w.automaton).reachable
            nonempty = any(next(iter(e)) in reach for e in w.table.entries)
            assert (verdict is TriState.NO) == nonempty
