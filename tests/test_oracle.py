import itertools
import random
import sys

import pytest

from omega_baire import (
    AlphabetMismatch,
    BadLoop,
    BadStateIndex,
    BuchiSet,
    DetAutomaton,
    LassoWord,
    MullerTable,
    SizeGuard,
    accepts,
    accepts_buchi,
    accepts_muller,
    analyze,
    build_baire_witness,
    boolean_table_op,
    bounded_lasso_scan,
    inf_set,
    is_loop,
    language_subset_oracle,
    loop_lasso,
    maximal_muller_buchi_equiv,
    product,
    random_instance,
    serialize_automaton,
    table_subset_same_automaton,
    verify_baire_witness,
    RandomSpec,
)
from omega_baire.loops import enumerate_loops
from omega_baire.oracle import DEFAULT_PRODUCT_BUDGET, lasso_domain_size
from conftest import exhaustive_lassos, random_automaton, random_lasso, random_table


class TestTableAlgebra:
    def test_subset_examples(self, ex1):
        assert table_subset_same_automaton(ex1, MullerTable.of({0}), MullerTable.of({0}, {1}))
        assert not table_subset_same_automaton(ex1, MullerTable.of({0, 1}), MullerTable.of({0}))

    def test_subset_non_loops_inert(self, ex2):
        t = MullerTable.of({0}, {0, 1})  # neither is a loop of ex2
        assert table_subset_same_automaton(ex2, t, MullerTable.of())

    def test_boolean_op_examples(self, ex1):
        out = boolean_table_op(ex1, MullerTable.of({0}), MullerTable.of({0}, {1}), "symmetric-difference")
        assert out.entries == frozenset({frozenset({1})})
        out = boolean_table_op(ex1, MullerTable.of({0, 1}), MullerTable.of({1}), "intersection")
        assert out.entries == frozenset()

    def test_boolean_op_unknown(self, ex1):
        with pytest.raises(ValueError):
            boolean_table_op(ex1, MullerTable.of(), MullerTable.of(), "xor")

    def test_boolean_op_lasso_semantics(self, ex1):
        rng = random.Random(1)
        t1 = MullerTable.of({0})
        t2 = MullerTable.of({0}, {1})
        delta = boolean_table_op(ex1, t1, t2, "symmetric-difference")
        for _ in range(1000):
            w = random_lasso(rng, ex1.alphabet)
            assert accepts_muller(ex1, delta, w) == (
                accepts_muller(ex1, t1, w) != accepts_muller(ex1, t2, w)
            )


class TestProduct:
    def test_self_product_is_diagonal(self, ex1):
        p = product(ex1, ex1)
        assert p.automaton.n_states == 2
        assert all(l == r for l, r in zip(p.left, p.right))

    def test_projections_commute_with_step(self, ex1, ex2):
        p = product(ex1, ex2)
        assert p.automaton.n_states <= 6
        r = len(p.automaton.alphabet)
        for q in range(p.automaton.n_states):
            for x in range(r):
                t = p.automaton.delta[q * r + x]
                assert p.left[t] == ex1.delta[p.left[q] * r + x]
                assert p.right[t] == ex2.delta[p.right[q] * r + x]

    def test_alphabet_mismatch(self, ex1):
        other = DetAutomaton(alphabet=("a", "c"), n_states=1, initial=0, delta=(0, 0))
        with pytest.raises(AlphabetMismatch):
            product(ex1, other)

    def test_budget(self, ex1, ex2):
        with pytest.raises(SizeGuard):
            product(ex1, ex2, budget=2)

    def test_budget_counts_the_initial_pair(self):
        one = DetAutomaton(alphabet=("a",), n_states=1, initial=0, delta=(0,))
        assert product(one, one, budget=1).automaton.n_states == 1
        with pytest.raises(SizeGuard):
            product(one, one, budget=0)


def _count_walked_states(monkeypatch) -> list[int]:
    """Patch `level_order` in `loops` and `oracle` to count the states
    that the walks yield; the count is the list's one item."""
    import omega_baire.loops as loops_mod
    import omega_baire.oracle as oracle_mod

    real = loops_mod.level_order
    yielded = [0]

    def counting(*args):
        for step in real(*args):
            yielded[0] += 1
            yield step

    monkeypatch.setattr(loops_mod, "level_order", counting)
    monkeypatch.setattr(oracle_mod, "level_order", counting)
    return yielded


class TestLoopLasso:
    def test_realizes_every_loop(self):
        rng = random.Random(3)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 7))
            for z in enumerate_loops(a):
                w = loop_lasso(a, z)
                assert inf_set(a, w) == z

    @pytest.mark.parametrize(
        "a, z",
        [
            # a and b both swap the two states: no self-transition
            (DetAutomaton(("a", "b"), 2, 0, (1, 1, 0, 0)), {0}),
            (DetAutomaton(("a", "b"), 2, 0, (1, 1, 0, 0)), set()),
            # the chain 0 -> 1 -> 2, which loops only at 2
            (DetAutomaton(("a",), 3, 0, (1, 2, 2)), {0, 1}),
            (DetAutomaton(("a",), 3, 0, (1, 2, 2)), {0}),
            # an SCC that the initial state 2 does not reach
            (DetAutomaton(("a", "b"), 3, 2, (1, 0, 0, 2, 2, 2)), {0, 1}),
        ],
    )
    def test_non_loop_raises_bad_loop(self, a, z):
        with pytest.raises(BadLoop):
            loop_lasso(a, frozenset(z))

    def test_state_out_of_range_is_not_a_loop(self, ex1):
        for z in ({0, 1, 5}, {5}, {-1}):
            with pytest.raises(BadLoop) as exc:
                loop_lasso(ex1, frozenset(z))
            assert str(exc.value) == f"set {sorted(z)} is not a loop"

    def test_covering_lasso_of_a_long_cycle(self, monkeypatch):
        n = 2000
        a = DetAutomaton(("a",), n, 0, tuple((s + 1) % n for s in range(n)))
        yielded = _count_walked_states(monkeypatch)
        assert loop_lasso(a, frozenset(range(n))) == LassoWord((), ("a",) * n)
        # Each walk stops at its goal: the next state of the cycle.
        assert yielded[0] <= 3 * n

    def test_long_prefix_is_walked_once(self, monkeypatch):
        """The entry walk is the only walk along the chain into the loop:
        checking that the set is a loop takes no walk of its own."""
        chain, cycle = 2000, 50
        n = chain + cycle
        a = DetAutomaton(("a",), n, 0, tuple(s + 1 if s < n - 1 else chain for s in range(n)))
        yielded = _count_walked_states(monkeypatch)
        assert loop_lasso(a, frozenset(range(chain, n))) == LassoWord(
            ("a",) * chain, ("a",) * cycle
        )
        assert yielded[0] <= chain + 3 * cycle


class TestSubsetOracle:
    def test_examples(self, ex1, ex2):
        assert language_subset_oracle(ex2, MullerTable.of({1}), ex2, BuchiSet.of(1)).holds
        verdict = language_subset_oracle(ex1, MullerTable.of({0, 1}), ex1, MullerTable.of({0}))
        assert not verdict.holds
        assert inf_set(ex1, verdict.counterexample) == {0, 1}
        assert language_subset_oracle(ex1, MullerTable.of(), ex1, MullerTable.of({0})).holds

    def test_counterexample_verified(self, ex1):
        verdict = language_subset_oracle(ex1, MullerTable.of({0, 1}), ex1, MullerTable.of({0}))
        w = verdict.counterexample
        assert accepts_muller(ex1, MullerTable.of({0, 1}), w)
        assert not accepts_muller(ex1, MullerTable.of({0}), w)

    def test_mixed_acceptance(self, ex2):
        # Buchi {1} accepts everything whose run meets state 1
        assert language_subset_oracle(ex2, BuchiSet.of(1), ex2, MullerTable.of({1})).holds
        verdict = language_subset_oracle(ex2, BuchiSet.of(1, 2), ex2, MullerTable.of({1}))
        assert not verdict.holds

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (MullerTable.of({7}), "table entry state 7 out of range"),
            (BuchiSet.of(9), "accepting state 9 out of range"),
        ],
        ids=["muller", "buchi"],
    )
    def test_acceptance_out_of_range(self, side, bad, message):
        a = DetAutomaton(("a", "b"), 2, 0, (1, 0, 0, 1))
        good = MullerTable.of({0, 1})
        args = (a, bad, a, good) if side == "left" else (a, good, a, bad)
        with pytest.raises(BadStateIndex, match=message):
            language_subset_oracle(*args)

    def test_entrywise_inclusion_matches_product_oracle(self):
        # Entry-wise table inclusion agrees with the product-loop oracle on a
        # single automaton, one thousand instances.
        rng = random.Random(5)
        for _ in range(1000):
            a = random_automaton(rng, rng.randint(1, 8))
            t1 = random_table(rng, a.n_states)
            t2 = random_table(rng, a.n_states)
            fast = table_subset_same_automaton(a, t1, t2)
            slow = language_subset_oracle(a, t1, a, t2)
            assert fast == slow.holds

    def test_completeness_vs_bounded_scan(self):
        # Whenever the oracle claims inclusion, no bounded lasso violates it;
        # whenever it does not, its witness is a genuine bounded violation.
        # Prefix bound: twice the product size covers every reachable prefix
        # class; period bound 8 keeps the scan tractable.
        rng = random.Random(7)
        completed = 0
        skipped = 0
        for _ in range(1000):
            nA, nB = rng.randint(1, 5), rng.randint(1, 5)
            aA = random_automaton(rng, nA)
            aB = random_automaton(rng, nB)
            tA = random_table(rng, nA)
            tB = random_table(rng, nB)
            try:
                verdict = language_subset_oracle(aA, tA, aB, tB)
            except SizeGuard:
                skipped += 1
                continue
            prod = product(aA, aB)
            left, right = prod.left, prod.right

            def violates(z):
                zl = frozenset(left[q] for q in z)
                zr = frozenset(right[q] for q in z)
                return zl in tA.entries and zr not in tB.entries

            found = bounded_lasso_scan(prod.automaton, violates, 2 * nA * nB, 8)
            assert verdict.holds == (found is None)
            completed += 1
        assert completed >= 950, f"only {completed} pairs within budget"
        assert skipped <= 50


class TestBoundedLassoScan:
    def test_matches_literal_enumeration(self):
        # The prefix-collapsed scan agrees with evaluating every concrete
        # lasso in the bounded domain.
        rng = random.Random(9)
        for _ in range(40):
            a = random_automaton(rng, rng.randint(1, 3))
            t = random_table(rng, a.n_states)
            pred = lambda z: z in t.entries
            scan = bounded_lasso_scan(a, pred, 3, 3)
            literal = None
            for w in exhaustive_lassos(a.alphabet, 3, 3):
                if inf_set(a, w) in t.entries:
                    literal = w
                    break
            assert (scan is None) == (literal is None)
            if scan is not None:
                assert inf_set(a, scan) in t.entries

    def test_budget(self, ex1):
        with pytest.raises(SizeGuard):
            bounded_lasso_scan(ex1, lambda z: False, 8, 8, budget=10)

    def test_budget_past_thousands_of_digits(self, ex1):
        # Summed in full, the step count at period 20000 has 6022 digits.
        with pytest.raises(SizeGuard, match="needs more than 524288 steps"):
            bounded_lasso_scan(ex1, lambda z: False, 8, 20000)

    def test_empty_domain(self, ex1):
        # No prefix (max_prefix < 0) or no period (max_period < 1): nothing
        # to scan, even for a predicate that every Inf set satisfies.
        for max_prefix, max_period in ((3, 0), (0, 0), (-1, 3), (-1, 0), (2, -1)):
            assert lasso_domain_size(2, max_prefix, max_period) == 0
            assert not list(exhaustive_lassos(ex1.alphabet, max_prefix, max_period))
            assert bounded_lasso_scan(ex1, lambda z: True, max_prefix, max_period) is None
        assert bounded_lasso_scan(ex1, lambda z: True, 0, 1) == LassoWord((), ("a",))

    @staticmethod
    def _reference_scan(a, violation, max_prefix, max_period):
        """The scan's contract written out literally: periods in depth-first
        preorder, then start states in ascending order, each with its
        shortest prefix (successors in symbol order), judged by
        `inf_set`."""
        r = len(a.alphabet)
        prefix = {a.initial: ()} if max_prefix >= 0 else {}
        layer = list(prefix)
        for _ in range(max_prefix):
            nxt = []
            for s in layer:
                for x, tok in enumerate(a.alphabet):
                    t = a.delta[s * r + x]
                    if t not in prefix:
                        prefix[t] = prefix[s] + (tok,)
                        nxt.append(t)
            layer = nxt

        def periods(v):
            if len(v) < max_period:
                for x in range(r):
                    yield v + (x,)
                    yield from periods(v + (x,))

        for v in periods(()):
            period = tuple(a.alphabet[x] for x in v)
            for s in sorted(prefix):
                w = LassoWord(prefix[s], period)
                if violation(inf_set(a, w)):
                    return w
        return None

    def test_same_lasso_as_reference(self):
        rng = random.Random(61)
        found = 0
        for _ in range(300):
            a = random_automaton(rng, rng.randint(1, 7), rng.randint(1, 3))
            loops = enumerate_loops(a)
            bad = {z for z in loops if rng.random() < 0.3}
            pred = lambda z: z in bad
            max_prefix, max_period = rng.randint(-1, 4), rng.randint(0, 4)
            got = bounded_lasso_scan(a, pred, max_prefix, max_period)
            assert got == self._reference_scan(a, pred, max_prefix, max_period)
            found += got is not None
        assert found >= 100

    def test_one_call_per_inf_set(self):
        # A predicate that never fires makes the scan cover its whole domain:
        # it must ask about every Inf set of that domain, each exactly once.
        rng = random.Random(67)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 7), rng.randint(1, 3))
            max_prefix, max_period = rng.randint(0, 4), rng.randint(1, 4)
            calls: list[frozenset[int]] = []

            def never(z):
                calls.append(z)
                return False

            assert bounded_lasso_scan(a, never, max_prefix, max_period) is None
            assert len(calls) == len(set(calls))
            expected = {
                inf_set(a, w) for w in exhaustive_lassos(a.alphabet, max_prefix, max_period)
            }
            assert set(calls) == expected

    def test_unclosed_domain_scans_every_period(self):
        # 0 -a-> 2, 0 -b-> 1, 1 -a-> 0, 1 -b-> 2, and 2 loops on both letters.
        # With max_prefix 0 the only start is 0, while 1 and 2 are reachable:
        # the Lyndon period "ab" from 0 stays in {2}, and only its conjugate
        # "ba" from 0 sees {0, 1}.
        a = DetAutomaton(alphabet=("a", "b"), n_states=3, initial=0, delta=(2, 1, 0, 2, 2, 2))
        got = bounded_lasso_scan(a, lambda z: z == {0, 1}, 0, 2)
        assert got == LassoWord((), ("b", "a"))

    def test_closed_domain_judges_lyndon_periods_only(self):
        # Over 2 letters there are 510 periods of length 1..8, 71 of them
        # Lyndon words; each period judged runs one `violating_prefix` pass.
        judged = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "violating_prefix":
                judged.append(1)

        one = DetAutomaton(alphabet=("a", "b"), n_states=1, initial=0, delta=(0, 0))
        # 1 is reachable but, with no prefix allowed, no start.
        two = DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(1, 1, 1, 1))
        for a, expected in ((one, 71), (two, 510)):
            judged.clear()
            sys.setprofile(count)
            try:
                assert bounded_lasso_scan(a, lambda z: False, 0, 8) is None
            finally:
                sys.setprofile(None)
            assert len(judged) == expected

    def test_long_periods_same_lasso_and_inf_sets_as_reference(self):
        # Periods up to 8 hold proper powers and long conjugacy classes, which
        # the scan judges through one Lyndon period each when every reachable
        # state is a start.  Lasso and the set of Inf sets asked about (each
        # once) must still be those of the literal preorder scan.
        rng = random.Random(71)
        kinds = set()
        for case in range(300):
            a = random_automaton(rng, rng.randint(1, 6), rng.randint(1, 2))
            loops = sorted(enumerate_loops(a), key=sorted)
            rate = (0.0, 0.1, 0.3)[case % 3]
            bad = {z for z in loops if rng.random() < rate}
            max_prefix, max_period = rng.randint(0, 3), rng.randint(5, 8)
            asked, ref_asked = [], set()

            def pred(z):
                asked.append(z)
                return z in bad

            def ref_pred(z):
                ref_asked.add(z)
                return z in bad

            got = bounded_lasso_scan(a, pred, max_prefix, max_period)
            assert got == self._reference_scan(a, ref_pred, max_prefix, max_period)
            assert len(asked) == len(set(asked))
            assert set(asked) == ref_asked
            # Closed: every reachable state is within max_prefix steps.
            dist = {a.initial: 0}
            queue = [a.initial]
            for s in queue:
                for t in a.delta[s * len(a.alphabet):(s + 1) * len(a.alphabet)]:
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        queue.append(t)
            kinds.add((max(dist.values()) <= max_prefix, got is not None))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def _same_as_reference(self, a, bad, max_prefix, max_period):
        """The scan's lasso is the reference's, and it asks about exactly the
        Inf sets the reference asks about, each once."""
        asked, ref_asked = [], set()

        def pred(z):
            asked.append(z)
            return z in bad

        def ref_pred(z):
            ref_asked.add(z)
            return z in bad

        got = bounded_lasso_scan(a, pred, max_prefix, max_period)
        assert got == self._reference_scan(a, ref_pred, max_prefix, max_period)
        assert len(asked) == len(set(asked))
        assert set(asked) == ref_asked
        return got, asked

    def test_one_state_automaton(self):
        # Every period map of one state is the one-entry map 0 -> 0.
        for r in (1, 2, 3):
            a = DetAutomaton(alphabet=tuple("abc"[:r]), n_states=1, initial=0, delta=(0,) * r)
            for bad in (set(), {frozenset({0})}):
                for max_prefix in (0, 2):
                    for max_period in range(1, 7 if r < 3 else 5):
                        got, asked = self._same_as_reference(a, bad, max_prefix, max_period)
                        assert asked == [frozenset({0})]
                        assert (got is None) == (not bad)

    def test_permutation_automata(self):
        # Each letter permutes the states, so every state lies on a cycle of
        # every period map, and those cycles are long.
        rng = random.Random(73)
        kinds, longest = set(), 0
        for case in range(60):
            n, r = rng.randint(2, 7), rng.randint(1, 3)
            perms = [rng.sample(range(n), n) for _ in range(r)]
            delta = tuple(perms[x][s] for s in range(n) for x in range(r))
            a = DetAutomaton(alphabet=tuple("abc"[:r]), n_states=n, initial=0, delta=delta)
            loops = sorted(enumerate_loops(a), key=sorted)
            bad = {z for z in loops if rng.random() < (0.0, 0.1, 0.3)[case % 3]}
            max_period = rng.randint(3, 7 if r < 3 else 5)
            got, asked = self._same_as_reference(a, bad, n, max_period)
            kinds.add(got is not None)
            longest = max(longest, *map(len, asked))
        assert kinds == {True, False}
        assert longest >= 6

    def test_open_domains(self):
        # max_prefix below the eccentricity of the initial state: some
        # reachable state is no start, and every period is walked.
        rng = random.Random(79)
        kinds = set()
        checked = 0
        while checked < 120:
            a = random_automaton(rng, rng.randint(3, 7), rng.randint(1, 3))
            r = len(a.alphabet)
            dist = {a.initial: 0}
            queue = [a.initial]
            for s in queue:
                for t in a.delta[s * r:(s + 1) * r]:
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        queue.append(t)
            eccentricity = max(dist.values())
            if eccentricity == 0:
                continue
            checked += 1
            loops = sorted(enumerate_loops(a), key=sorted)
            bad = {z for z in loops if rng.random() < (0.0, 0.2, 0.5)[checked % 3]}
            max_prefix = rng.randint(0, eccentricity - 1)
            got, _ = self._same_as_reference(a, bad, max_prefix, rng.randint(1, 5 if r < 3 else 4))
            kinds.add(got is not None)
        assert kinds == {True, False}

    @staticmethod
    def _walk_nodes(r, max_period, closed):
        """The period nodes a scan builds, counted from the definitions: a
        necklace is no greater than any of its rotations, a Lyndon word is
        less than all its proper rotations, and a prenecklace is a prefix of
        a necklace (of fewer than twice its length)."""
        if not closed:
            return sum(r**j for j in range(1, max_period + 1))

        def rotations(w):
            return [w[i:] + w[:i] for i in range(1, len(w))]

        prenecklaces = set()
        for m in range(1, 2 * max_period):
            for w in itertools.product(range(r), repeat=m):
                if all(w <= v for v in rotations(w)):
                    prenecklaces.update(w[:j] for j in range(1, max_period))
        lyndon = [
            w
            for w in itertools.product(range(r), repeat=max_period)
            if all(w < v for v in rotations(w))
        ]
        return len(prenecklaces) + len(lyndon)

    def test_budget_charges_the_nodes_built(self):
        # The scan runs at a budget of n steps per node it builds, and one
        # step less raises SizeGuard.  Over 2 letters at period 8 a closed
        # domain builds 126 nodes and an open one 510.
        assert self._walk_nodes(2, 8, True) == 126
        assert self._walk_nodes(2, 8, False) == 510
        # 0 -a-> 1 -a-> 2 -a-> 0, and the other letters fix every state: from
        # max_prefix 2 on, every reachable state is a start.
        never = lambda z: False
        for r, alphabet, delta in (
            (1, ("a",), (1, 2, 0)),
            (2, ("a", "b"), (1, 0, 2, 1, 0, 2)),
            (3, ("a", "b", "c"), (1, 0, 0, 2, 1, 1, 0, 2, 2)),
        ):
            a = DetAutomaton(alphabet=alphabet, n_states=3, initial=0, delta=delta)
            for max_prefix, closed in ((1, False), (2, True)):
                for max_period in range(1, {1: 8, 2: 6, 3: 4}[r] + 1):
                    steps = 3 * self._walk_nodes(r, max_period, closed)
                    assert bounded_lasso_scan(a, never, max_prefix, max_period, budget=steps) is None
                    with pytest.raises(SizeGuard, match=f"needs more than {steps - 1} steps"):
                        bounded_lasso_scan(a, never, max_prefix, max_period, budget=steps - 1)

    def test_closed_domain_at_period_16_fits_the_default_budget(self):
        # 5 states times 14,394 nodes (131,070 periods if walked in full) is
        # under the default budget of 524,288 steps.
        rng = random.Random(83)
        a = random_automaton(rng, 5)
        asked = []

        def never(z):
            asked.append(z)
            return False

        assert bounded_lasso_scan(a, never, 5, 16) is None
        assert len(asked) == len(set(asked))
        assert set(asked) <= set(enumerate_loops(a))

    def test_domain_size(self):
        assert lasso_domain_size(2, 1, 1) == 3 * 2
        assert lasso_domain_size(2, 8, 8) == (2**9 - 1) * (2**9 - 2)


class TestMaximalEquiv:
    def test_agrees_with_generic_oracle(self):
        # Where both are feasible, the polynomial equivalence check and two
        # runs of the generic subset oracle must agree.
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            a = random_automaton(rng, rng.randint(1, 5))
            an = analyze(a)
            blocks = [s for s in an.sccs if not s.isdisjoint(an.reachable)]
            blocks = [
                z
                for z in blocks
                if len(z) > 1
                or any(a.delta[min(z) * len(a.alphabet) + x] == min(z) for x in range(len(a.alphabet)))
            ]
            t = MullerTable(frozenset(z for z in blocks if rng.random() < 0.7))
            b_aut = random_automaton(rng, rng.randint(1, 4))
            acc = BuchiSet(frozenset(s for s in range(b_aut.n_states) if rng.random() < 0.4))
            fast = maximal_muller_buchi_equiv(a, t, b_aut, acc)
            fwd = language_subset_oracle(a, t, b_aut, acc)
            bwd = language_subset_oracle(b_aut, acc, a, t)
            assert fast.holds == (fwd.holds and bwd.holds)
            if not fast.holds:
                w = fast.counterexample
                assert accepts_muller(a, t, w) != accepts_buchi(b_aut, acc, w)
            checked += 1
        assert checked == 300


    def test_given_analysis_gives_the_same_verdicts(self):
        rng = random.Random(89)
        fails = 0
        for _ in range(150):
            a = random_automaton(rng, rng.randint(1, 5))
            an = analyze(a)
            t = MullerTable(frozenset(s for s in an.sccs if is_loop(a, s, an) and rng.random() < 0.7))
            b_aut = random_automaton(rng, rng.randint(1, 4))
            acc = BuchiSet(frozenset(s for s in range(b_aut.n_states) if rng.random() < 0.4))
            given = maximal_muller_buchi_equiv(a, t, b_aut, acc, analysis=an)
            assert given == maximal_muller_buchi_equiv(a, t, b_aut, acc)
            fails += not given.holds
        assert fails >= 30


class TestRandomInstance:
    def test_deterministic(self):
        spec = RandomSpec(n_states=5, alphabet_size=2, table_entry_count=3, seed=1)
        a1, t1 = random_instance(spec)
        a2, t2 = random_instance(spec)
        assert a1 == a2 and t1 == t2
        assert serialize_automaton(a1, t1) == serialize_automaton(a2, t2)

    def test_passes_validation(self):
        a, t = random_instance(RandomSpec(n_states=5, alphabet_size=2, seed=1))
        assert a.n_states == 5
        t.validate_for(a.n_states)

    def test_entry_count_exact(self):
        for seed in range(30):
            spec = RandomSpec(n_states=4, table_entry_count=3, seed=seed)
            _, t = random_instance(spec)
            assert len(t.entries) == 3

    def test_includes_actual_loops(self):
        hits = 0
        for seed in range(20):
            a, t = random_instance(RandomSpec(n_states=5, table_entry_count=4, seed=seed))
            loops = set(enumerate_loops(a))
            if any(e in loops for e in t.entries):
                hits += 1
        assert hits >= 15

    def test_large_instance_falls_back_to_sccs(self):
        a, t = random_instance(RandomSpec(n_states=500, table_entry_count=4, seed=3))
        assert a.n_states == 500
        assert len(t.entries) == 4

    def test_huge_scc_falls_back_to_sccs(self):
        # The largest SCC has 15,830 states; its subset count has thousands
        # of digits.  The entry drawn from loops is then a whole SCC.
        a, t = random_instance(RandomSpec(n_states=20000, seed=1))
        analysis = analyze(a)
        assert max(map(len, analysis.sccs)) == 15830
        assert len(t.entries) == 2
        assert any(analysis.scc_id_of_set(e) is not None for e in t.entries)

    @pytest.mark.parametrize("count", [-1, -2])
    def test_rejects_negative_entry_count(self, count):
        with pytest.raises(ValueError, match="table_entry_count"):
            RandomSpec(n_states=3, table_entry_count=count)
        assert random_instance(RandomSpec(n_states=3, table_entry_count=0))[1].entries == set()


class TestLassoSampler:
    """The literal lasso domain that the scan tests compare against."""

    def test_exhaustive_counting_example(self):
        lassos = list(exhaustive_lassos(("a", "b"), 1, 1))
        assert [(l.prefix, l.period) for l in lassos] == [
            ((), ("a",)),
            ((), ("b",)),
            (("a",), ("a",)),
            (("a",), ("b",)),
            (("b",), ("a",)),
            (("b",), ("b",)),
        ]

    def test_exhaustive_count_matches_domain_size(self):
        got = sum(1 for _ in exhaustive_lassos(("a", "b"), 3, 2))
        assert got == lasso_domain_size(2, 3, 2)


class TestVerifyBaireWitness:
    def test_ex1(self, ex1):
        report = verify_baire_witness(ex1, MullerTable.of({0}))
        assert report.ok
        assert {c.name for c in report.checks} == {
            "symdiff-symbolic",
            "symdiff-loops",
            "symdiff-lassos",
            "symdiff-agreement",
            "b1-language",
            "b1-weak",
            "b2-language",
            "b2-bound",
        }

    def test_ex2_and_ex3(self, ex2, ex3):
        assert verify_baire_witness(ex2, MullerTable.of({1})).ok
        assert verify_baire_witness(ex3, MullerTable.of({0, 1})).ok

    def test_table_out_of_range(self, ex1):
        with pytest.raises(BadStateIndex, match="table entry state 7 out of range"):
            verify_baire_witness(ex1, MullerTable.of({0}, {7}))

    def test_render_format(self, ex2):
        report = verify_baire_witness(ex2, MullerTable.of({1}))
        for line in report.render().splitlines():
            assert line.startswith("check ")
            assert line.split()[2] in ("pass", "fail", "skip")

    def test_skip_over_budget(self, ex2):
        report = verify_baire_witness(
            ex2, MullerTable.of({1}), product_budget=1, skip_over_budget=True
        )
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["symdiff-loops"] == "skip"
        assert report.ok  # skips are not failures

    def test_open_buchi_language_needs_no_product_budget(self, ex2):
        # b1-language compares E with its Buchi form, which reuses E's
        # automaton, so its product is E's diagonal and runs at any budget.
        t = MullerTable.of({1})
        a1 = build_baire_witness(ex2, t).open_muller[0]
        assert a1.n_states > 1
        report = verify_baire_witness(ex2, t, product_budget=1, skip_over_budget=True)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["b1-language"] == "pass"
        assert statuses["b2-language"] == "skip"

    def test_weakness_needs_no_loop_budget(self):
        # {0, 1} is a two-state SCC below the terminal state 2.  Weakness is
        # decided per SCC, so a loop budget that skips the product loop
        # route does not skip it.
        a = DetAutomaton(alphabet=("a", "b"), n_states=3, initial=0, delta=(1, 2, 0, 2, 2, 2))
        report = verify_baire_witness(
            a, MullerTable.of({2}), loop_budget=1, skip_over_budget=True
        )
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["symdiff-loops"] == "skip"
        assert statuses["b1-weak"] == "pass"

    @pytest.mark.parametrize("bound", [0, -1])
    def test_rejects_vacuous_lasso_bound(self, ex2, bound):
        with pytest.raises(ValueError):
            verify_baire_witness(ex2, MullerTable.of({1}), lasso_bound=bound)

    @pytest.mark.parametrize("budget", [1, DEFAULT_PRODUCT_BUDGET])
    def test_symdiff_product_built_once(self, ex2, budget, monkeypatch):
        import omega_baire.oracle as oracle_mod

        t = MullerTable.of({1})
        bundle = build_baire_witness(ex2, t)
        a1 = bundle.open_muller[0]
        assert a1 != bundle.meagre_complement_buchi[0]
        calls = []
        real = oracle_mod.product

        def counting(aA, aB, **kwargs):
            calls.append((aA, aB))
            return real(aA, aB, **kwargs)

        monkeypatch.setattr(oracle_mod, "product", counting)
        report = verify_baire_witness(ex2, t, product_budget=budget, skip_over_budget=True)
        # One product for both symdiff routes; each equivalence check builds
        # its own.
        assert sum(aA is ex2 and aB == a1 for aA, aB in calls) == 1
        assert len(calls) == 3
        statuses = {c.name: c.status for c in report.checks}
        if budget == 1:
            for name in ("symdiff-loops", "symdiff-lassos", "symdiff-agreement"):
                assert statuses[name] == "skip"
            for name in ("symdiff-symbolic", "b1-weak", "b2-bound"):
                assert statuses[name] == "pass"
            details = {c.name: c.detail for c in report.checks}
            assert details["symdiff-loops"] == details["symdiff-lassos"]
            assert details["symdiff-loops"].startswith("product exceeds 1 states")
            assert details["symdiff-agreement"] == "a route was skipped"
        else:
            assert set(statuses.values()) == {"pass"}

    def test_b2_language_reuses_the_input_analysis(self, ex2, monkeypatch):
        # The meagre complement's automaton is the input, whose analysis the
        # verifier holds: the input is analysed once per call.
        import omega_baire.oracle as oracle_mod

        analysed = []
        real = oracle_mod.analyze
        monkeypatch.setattr(oracle_mod, "analyze", lambda a: analysed.append(a) or real(a))
        report = verify_baire_witness(ex2, MullerTable.of({1}))
        assert report.ok
        assert sum(a is ex2 for a in analysed) == 1

    def test_budget_raises_without_skip(self, ex2):
        with pytest.raises(SizeGuard):
            verify_baire_witness(ex2, MullerTable.of({1}), product_budget=1)

    def test_random_instances_all_pass(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(2, 6)
            a, t = random_instance(
                RandomSpec(
                    n_states=n,
                    alphabet_size=2,
                    table_entry_count=rng.randint(0, min(4, 2**n)),
                    seed=rng.randrange(2**32),
                )
            )
            report = verify_baire_witness(a, t)
            assert report.ok, report.render()


class TestAcceptsDispatch:
    def test_muller_and_buchi(self, ex1):
        w = LassoWord("", "a")
        assert accepts(ex1, MullerTable.of({0}), w)
        assert accepts(ex1, BuchiSet.of(0), w)
        assert not accepts(ex1, BuchiSet.of(1), w)


class TestCheckersCatchCorruption:
    """Deliberately broken constructions must be detected, so that the
    always-pass outcomes elsewhere carry weight."""

    def _translations(self, count=40, seed=101):
        from omega_baire import analyze, muller_to_buchi_maximal

        rng = random.Random(seed)
        out = []
        for _ in range(count):
            a = random_automaton(rng, rng.randint(2, 6))
            an = analyze(a)
            blocks = [
                s
                for s in an.sccs
                if not s.isdisjoint(an.reachable)
                and (
                    len(s) > 1
                    or any(
                        a.delta[min(s) * len(a.alphabet) + x] == min(s)
                        for x in range(len(a.alphabet))
                    )
                )
            ]
            if not blocks:
                continue
            t = MullerTable(frozenset(blocks))
            out.append((rng, a, t, muller_to_buchi_maximal(a, t)))
        return out

    def test_exact_equiv_catches_accepting_set_corruption(self):
        caught = 0
        total = 0
        for rng, a, t, tr in self._translations():
            total += 1
            wrong = BuchiSet(frozenset())  # rejects everything
            verdict = maximal_muller_buchi_equiv(a, t, tr.automaton, wrong)
            assert not verdict.holds
            w = verdict.counterexample
            assert accepts_muller(a, t, w)
            caught += 1
        assert caught == total and total >= 20

    def test_exact_equiv_catches_everything_accepting(self):
        for rng, a, t, tr in self._translations(count=30, seed=103):
            # accepting everywhere accepts strictly more unless the Muller
            # language is already everything
            wrong = BuchiSet(frozenset(range(tr.automaton.n_states)))
            verdict = maximal_muller_buchi_equiv(a, t, tr.automaton, wrong)
            universal = all(
                accepts_muller(a, t, random_lasso(rng, a.alphabet)) for _ in range(60)
            )
            if not verdict.holds:
                w = verdict.counterexample
                assert accepts_muller(a, t, w) != accepts_buchi(tr.automaton, wrong, w)
            else:
                assert universal

    def test_bounded_scan_catches_table_corruption(self, ex3):
        from omega_baire import muller_to_buchi_maximal, product

        t = MullerTable.of({0, 1})
        tr = muller_to_buchi_maximal(ex3, t)
        prod = product(ex3, tr.automaton)
        left, right = prod.left, prod.right
        wrong_entries = MullerTable.of({0}).entries  # not the real language

        def disagree(z):
            zl = frozenset(left[q] for q in z)
            zr = frozenset(right[q] for q in z)
            return (zl in wrong_entries) != (not zr.isdisjoint(tr.accepting.accepting))

        w = bounded_lasso_scan(prod.automaton, disagree, 4, 4)
        assert w is not None

    @staticmethod
    def _break_quotient(monkeypatch):
        # Sabotage the open-witness table: accept the wrong merged states.
        # The verifier checks the bundle of build_baire_witness, so the
        # sabotage goes where that pipeline looks the builder up.
        import omega_baire.baire as baire_mod
        from omega_baire import build_open_witness
        from omega_baire.baire import OpenWitness

        real = build_open_witness

        def sabotaged(a, t, analysis=None):
            w = real(a, t, analysis)
            merged = {
                s for s, o in w.origin.items() if isinstance(o, frozenset)
            }
            accepted = {next(iter(e)) for e in w.table.entries}
            wrong = merged - accepted
            broken = MullerTable(frozenset({frozenset({m}) for m in wrong}))
            return OpenWitness(automaton=w.automaton, table=broken, origin=w.origin)

        monkeypatch.setattr(baire_mod, "build_open_witness", sabotaged)

    def test_verify_catches_broken_quotient(self, monkeypatch):
        # The open language becomes the b-branch instead of the a-branch.
        self._break_quotient(monkeypatch)
        ex2 = DetAutomaton(
            alphabet=("a", "b"), n_states=3, initial=0, delta=(1, 2, 1, 1, 2, 2)
        )
        report = verify_baire_witness(ex2, MullerTable.of({1}))
        assert not report.ok
        failed = {c.name for c in report.checks if c.status == "fail"}
        assert "symdiff-loops" in failed and "symdiff-lassos" in failed
        assert "symdiff-symbolic" in failed

    def test_verify_routes_disagree(self, monkeypatch):
        # With one terminal SCC the sabotage empties the open table, so each
        # run into state 3 is in the symmetric difference.  The shortest such
        # lasso, aab:a, is too long for lasso_bound=1: only the loop route
        # finds it, and the agreement check fails.
        self._break_quotient(monkeypatch)
        a = DetAutomaton(alphabet=("a", "b"), n_states=4, initial=0, delta=(1, 0, 2, 0, 0, 3, 3, 3))
        report = verify_baire_witness(a, MullerTable.of({3}), lasso_bound=1)
        lines = report.render().splitlines()
        assert "check symdiff-loops fail aab:a" in lines
        assert "check symdiff-lassos pass" in lines
        assert "check symdiff-agreement fail" in lines

    def test_verify_catches_straddling_open_buchi(self, monkeypatch):
        # Sabotage the open Buchi automaton: accept state 0 of the two-state
        # SCC {0, 1}, which is not terminal, so that SCC straddles.
        import dataclasses

        import omega_baire.oracle as oracle_mod

        real = oracle_mod.build_baire_witness

        def sabotaged(a, t, analysis=None, **kwargs):
            w = real(a, t, analysis, **kwargs)
            b1, acc = w.open_buchi
            return dataclasses.replace(w, open_buchi=(b1, BuchiSet(acc.accepting | {0})))

        monkeypatch.setattr(oracle_mod, "build_baire_witness", sabotaged)
        a = DetAutomaton(alphabet=("a", "b"), n_states=3, initial=0, delta=(1, 2, 0, 2, 2, 2))
        report = verify_baire_witness(a, MullerTable.of({2}))
        weak = next(c for c in report.checks if c.name == "b1-weak")
        assert (weak.status, weak.detail) == ("fail", "straddling loop [0, 1]")
        assert not report.ok

    def test_verify_catches_broken_translation(self, monkeypatch):
        # Sabotage the layered translation's accepting set inside the
        # pipeline that the verifier checks.
        import omega_baire.baire as baire_mod
        from omega_baire import muller_to_buchi_maximal as real
        from omega_baire.to_buchi import BuchiTranslation

        def sabotaged(a, t, analysis=None, **kwargs):
            tr = real(a, t, analysis, **kwargs)
            return BuchiTranslation(
                automaton=tr.automaton,
                accepting=BuchiSet(frozenset()),
                origin=tr.origin,
                unpruned_state_count=tr.unpruned_state_count,
                report=tr.report,
            )

        monkeypatch.setattr(baire_mod, "muller_to_buchi_maximal", sabotaged)
        ex2 = DetAutomaton(
            alphabet=("a", "b"), n_states=3, initial=0, delta=(1, 2, 1, 1, 2, 2)
        )
        report = verify_baire_witness(ex2, MullerTable.of({1}))
        failed = {c.name for c in report.checks if c.status == "fail"}
        assert "b2-language" in failed
