import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega_baire import (
    BadStateIndex,
    BuchiSet,
    DetAutomaton,
    LassoWord,
    MullerTable,
    UnknownSymbol,
    accepts_buchi,
    accepts_muller,
    analyze,
    build_open_witness,
    inf_set,
    is_loop,
    loop_lasso,
    muller_to_buchi_maximal,
    parse_automaton,
    product,
    run,
    serialize_automaton,
    step,
)
from omega_baire import automaton
from conftest import brute_inf_set, chain_plus_random, pinned_kernel, random_automaton, random_lasso


class TestDetAutomaton:
    def test_validation_rejects_bad_initial(self):
        with pytest.raises(BadStateIndex):
            DetAutomaton(alphabet=("a",), n_states=2, initial=2, delta=(0, 1))

    def test_validation_rejects_bad_target(self):
        for container in (list, tuple, lambda d: array("q", d)):
            # Past a C int too: an OverflowError of the table is reported
            # as the target out of range it is.
            for delta in ((0, 5), (0, 2), (-1, 1), (0, 2**31), (0, 2**40), (-(2**31) - 1, 0)):
                with pytest.raises(BadStateIndex, match="transition target out of range"):
                    DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=container(delta))

    def test_validation_rejects_bad_target_in_a_large_table(self):
        # From _NUMPY_CELLS cells on, the bounds are read through numpy
        # once it is imported.
        pytest.importorskip("numpy")
        n = automaton._NUMPY_CELLS
        for container in (list, lambda d: array("q", d)):
            for bad in (n, -1):
                delta = [0] * n
                delta[n // 2] = bad
                with pytest.raises(BadStateIndex, match="transition target out of range"):
                    DetAutomaton(alphabet=("a",), n_states=n, initial=0, delta=container(delta))

    def test_validation_rejects_wrong_table_size(self):
        with pytest.raises(ValueError):
            DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(0, 1, 0))

    def test_validation_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            DetAutomaton(alphabet=("a", "a"), n_states=1, initial=0, delta=(0, 0))

    @pytest.mark.parametrize("delta", [[0.9, 1.7], [True, False]])
    def test_validation_rejects_non_integer_numpy_table(self, delta):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=np.array(delta))

    def test_numpy_integer_tables_accepted(self):
        np = pytest.importorskip("numpy")
        for dtype in (np.int32, np.uint8, np.int64):
            a = DetAutomaton(
                alphabet=("a",), n_states=2, initial=0, delta=np.array([1, 0], dtype=dtype)
            )
            assert list(a.delta) == [1, 0]

    def test_numpy_tables_read_in_row_major_order(self):
        # The table is read through its buffer: a transposed, strided or
        # big-endian array must still give its row-major values, and an
        # empty one the size error.
        np = pytest.importorskip("numpy")
        cols = np.array([[1, 0], [0, 1]], dtype=np.int64)
        for delta in (cols.T, np.array([1, 9, 0, 9, 0, 9, 1, 9])[::2], cols.T.astype(">i8")):
            a = DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=delta)
            assert list(a.delta) == [1, 0, 0, 1]
        with pytest.raises(ValueError, match="entries"):
            DetAutomaton(alphabet=("a",), n_states=1, initial=0, delta=np.zeros((0, 1), dtype=np.int64))

    @pytest.mark.parametrize("n_states, initial", [(2, True), (2, 0.0), (2.0, 0), (True, 0)])
    def test_bool_or_float_state_numbers_rejected(self, n_states, initial):
        with pytest.raises(TypeError, match="must be an integer"):
            DetAutomaton(alphabet=("a",), n_states=n_states, initial=initial, delta=(1, 0))

    @pytest.mark.parametrize("n_states, initial", [(2, 1), (2, True), (2, 0.0), (2, "int64")])
    def test_accepted_automaton_round_trips_through_a_file(self, n_states, initial):
        # An automaton the constructor accepts must come back from its own
        # file; a bool `initial` would be written as "initial True", which
        # the parser rejects.
        if initial == "int64":
            np = pytest.importorskip("numpy")
            n_states, initial = np.int64(n_states), np.int64(1)
        try:
            a = DetAutomaton(alphabet=("a",), n_states=n_states, initial=initial, delta=(1, 0))
        except TypeError:
            return
        assert type(a.n_states) is int and type(a.initial) is int
        assert parse_automaton(serialize_automaton(a, BuchiSet.of(0))) == (a, BuchiSet.of(0))

    def test_hashable_and_equal(self, ex1):
        other = DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=[0, 1, 0, 1])
        assert other == ex1
        assert hash(other) == hash(ex1)

    @pytest.mark.parametrize(
        "bad, dtype",
        [(2**31, "int64"), (2**32, "int64"), (2**40, "int64"), (2**64 - 1, "uint64"), (-1, "int64")],
    )
    def test_numpy_targets_past_a_c_int_rejected(self, bad, dtype):
        # Checked before the cast to C ints, which would wrap them
        # silently: 2**32 would become the valid target 0.
        np = pytest.importorskip("numpy")
        delta = np.array([0, bad], dtype=dtype)
        with pytest.raises(BadStateIndex, match="transition target out of range"):
            DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=delta)

    def test_more_states_than_a_c_int_rejected(self):
        # Rejected before the table's size is checked, so the test needs no
        # table of 2**31 cells.
        assert automaton.MAX_STATES == 2**31 - 1
        with pytest.raises(ValueError, match="more than 2147483647 states"):
            DetAutomaton(alphabet=("a",), n_states=2**31, initial=0, delta=[0])

    def test_every_constructor_stores_c_ints(self, ex1, ex3):
        # One table type everywhere: 4-byte C ints, whatever the source.
        np = pytest.importorskip("numpy")
        d = [1, 0, 0, 1]
        sources = [d, tuple(d), array("q", d), np.array(d), np.array(d, dtype=np.intc).reshape(2, 2)]
        built = [DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=x) for x in sources]
        text = serialize_automaton(ex3, MullerTable.of({0, 1}))
        built.append(parse_automaton(text)[0])
        # Transitions out of order take the line parser.
        lines = text.splitlines()
        built.append(parse_automaton("\n".join(lines[:4] + lines[4:8][::-1] + lines[8:]))[0])
        assert built[-1] == built[-2] == ex3
        t = MullerTable.of({0, 1})
        for use_numpy in (False, True):
            with pinned_kernel(use_numpy):
                built.append(muller_to_buchi_maximal(ex3, t).automaton)
                built.append(muller_to_buchi_maximal(ex3, t, prune=False).automaton)
        built.append(product(ex3, ex1).automaton)
        built.append(build_open_witness(ex3, t).automaton)
        for a in built:
            assert a.delta.typecode == "i" and a.delta.itemsize == 4


class TestRunSemantics:
    def test_run_examples(self, ex1):
        assert run(ex1, 0, "ab") == 1
        assert run(ex1, 0, "") == 0
        assert run(ex1, 1, "ba") == 0

    def test_run_extends_step(self, ex1):
        rng = random.Random(0)
        for _ in range(50):
            word = [rng.choice("ab") for _ in range(rng.randint(0, 6))]
            s = rng.randrange(2)
            if word:
                assert run(ex1, s, word) == step(ex1, run(ex1, s, word[:-1]), word[-1])

    def test_unknown_symbol(self, ex1):
        with pytest.raises(UnknownSymbol):
            step(ex1, 0, "c")
        with pytest.raises(UnknownSymbol):
            run(ex1, 0, "ac")


class TestInfSet:
    def test_examples(self, ex1, ex2):
        assert inf_set(ex1, LassoWord("", "a")) == {0}
        assert inf_set(ex1, LassoWord("bb", "ab")) == {0, 1}
        assert inf_set(ex2, LassoWord("a", "b")) == {1}

    def test_against_brute_unrolling(self):
        rng = random.Random(11)
        for _ in range(300):
            a = random_automaton(rng, rng.randint(1, 7))
            w = random_lasso(rng, a.alphabet)
            assert inf_set(a, w) == brute_inf_set(a, w)

    def test_result_is_always_a_loop(self):
        # Cross-module invariant, ten thousand random lassos.
        rng = random.Random(5)
        checked = 0
        for _ in range(120):
            a = random_automaton(rng, rng.randint(1, 8))
            for _ in range(90):
                w = random_lasso(rng, a.alphabet)
                z = inf_set(a, w)
                assert z and is_loop(a, z)
                checked += 1
        assert checked >= 10_000

    def test_normalization_invariance_seeded(self):
        rng = random.Random(6)
        for _ in range(500):
            a = random_automaton(rng, rng.randint(1, 6))
            w = random_lasso(rng, a.alphabet, 4, 4)
            base = inf_set(a, w)
            assert inf_set(a, LassoWord(w.prefix + w.period, w.period)) == base
            assert inf_set(a, LassoWord(w.prefix, w.period + w.period)) == base


def rho_automaton(tail: int, cycle: int) -> DetAutomaton:
    """One letter: a path of `tail` states into a cycle of `cycle` states."""
    n = tail + cycle
    return DetAutomaton(("a",), n, 0, [s + 1 if s + 1 < n else tail for s in range(n)])


# (tail, cycle, |prefix|, |period|): 500 anchors on the cycle, each state
# reached 499 times on it; a prefix ending in the tail, then 4 anchors before
# the cycle's 300; 100 anchors on the cycle, each state reached once on it.
LONG_ANCHOR_CYCLES = [(0, 500, 0, 499), (1000, 300, 7, 299), (35, 1000, 3, 10)]


class TestLongAnchorCycles:
    @pytest.mark.parametrize("tail, cycle, u, v", LONG_ANCHOR_CYCLES)
    def test_inf_set_against_brute_unrolling(self, tail, cycle, u, v):
        a = rho_automaton(tail, cycle)
        w = LassoWord("a" * u, "a" * v)
        assert inf_set(a, w) == brute_inf_set(a, w) == frozenset(range(tail, tail + cycle))

    def test_buchi_against_brute_inf_set(self):
        # One accepting state at a time: most are no anchor of the run, and
        # each cycle state is reached once per round of anchors.
        a = rho_automaton(35, 1000)
        w = LassoWord("aaa", "a" * 10)
        inf = brute_inf_set(a, w)
        for q in range(a.n_states):
            assert accepts_buchi(a, BuchiSet.of(q), w) == (q in inf)

    def test_buchi_on_covering_lasso_of_layered_translation(self):
        n = 30
        a = chain_plus_random(n)
        tr = muller_to_buchi_maximal(a, MullerTable.of(range(n)))
        b = tr.automaton
        w = loop_lasso(a, frozenset(range(n)))
        inf = brute_inf_set(b, w)
        assert accepts_buchi(b, tr.accepting, w) == (not inf.isdisjoint(tr.accepting.accepting))
        assert accepts_buchi(b, tr.accepting, w)
        for q in range(b.n_states):
            assert accepts_buchi(b, BuchiSet.of(q), w) == (q in inf)

    def test_buchi_peak_memory_per_walked_step(self):
        # 100k cycle states read 100 at a time: 1000 anchors, each state
        # reached once, so the walk takes 100k steps.  The Buchi walk keeps
        # one flag per period read and one dict entry per anchor, about 1 B
        # a step here, where a trace of every state takes about 41 B.
        n, v = 100_000, 100
        a = rho_automaton(0, n)
        w = LassoWord("", "a" * v)
        a.symbol_index  # noqa: B018  (cached before tracing)
        tracemalloc.start()
        try:
            assert accepts_buchi(a, BuchiSet.of(n - 1), w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 4


def reference_cycle(a: DetAutomaton, state: int, period_indices) -> tuple[list[int], int, int]:
    """The walk kept as the reference for the column-view kernels: each step
    computes `delta[s * r + x]` and every state reached goes into one trace.
    Returns the trace, the index where the anchor cycle's reads begin in it,
    and the number of anchors walked."""
    r = len(a.alphabet)
    seen: dict[int, int] = {}
    trace: list[int] = []
    s = state
    while s not in seen:
        seen[s] = len(trace)
        for x in period_indices:
            s = a.delta[s * r + x]
            trace.append(s)
    return trace, seen[s], len(seen)


def reference_lasso(a: DetAutomaton, w: LassoWord) -> tuple[frozenset[int], int]:
    """Inf set of the reference walk over `w`, and its anchor count."""
    s = run(a, a.initial, w.prefix)
    trace, start, anchors = reference_cycle(a, s, [a.symbol_index[t] for t in w.period])
    return frozenset(trace[start:]), anchors


class TestColumnWalkAgainstReference:
    def test_random_lassos(self):
        # Inf sets and both acceptance conditions agree with the reference
        # walk.  The Buchi sets are a random set, its part outside the Inf
        # set, and that part plus one Inf state.
        rng = random.Random(23)
        for _ in range(400):
            a = random_automaton(rng, rng.randint(1, 12), rng.randint(1, 3))
            w = random_lasso(rng, a.alphabet, 20, 20)
            inf, _ = reference_lasso(a, w)
            assert inf_set(a, w) == inf
            s = rng.randrange(a.n_states)
            period = [a.symbol_index[t] for t in w.period]
            trace, start, _ = reference_cycle(a, s, period)
            assert frozenset(automaton._cycle_states(a, s, period)) == frozenset(trace[start:])
            others = frozenset(rng.sample(range(a.n_states), rng.randint(0, a.n_states)))
            table = MullerTable.of(others, inf) if rng.random() < 0.5 else MullerTable.of(others)
            assert accepts_muller(a, table, w) == (inf in table.entries)
            for acc in (others, others - inf, frozenset(rng.sample(sorted(inf), 1)) | (others - inf)):
                assert accepts_buchi(a, BuchiSet(acc), w) == (not acc.isdisjoint(inf))

    def test_buchi_visit_only_on_a_tail_anchors_read(self):
        # a takes 0 to the accepting 1, then to the cycle 2 <-> 3: the read
        # of (aa) from anchor 0 meets 1, the reads from anchor 2 never do.
        a = DetAutomaton(("a",), 4, 0, [1, 2, 3, 2])
        w = LassoWord("", "aa")
        assert reference_lasso(a, w) == (frozenset({2, 3}), 2)
        assert not accepts_buchi(a, BuchiSet.of(1), w)
        assert accepts_buchi(a, BuchiSet.of(3), w)

    def test_buchi_visit_only_mid_period_on_the_cycle(self):
        # (ab) from the anchor 0 passes the accepting 1 after one letter and
        # comes back to 0; no anchor is accepting.
        a = DetAutomaton(("a", "b"), 3, 0, [1, 2, 2, 0, 2, 2])
        w = LassoWord("", "ab")
        assert reference_lasso(a, w) == (frozenset({0, 1}), 1)
        assert accepts_buchi(a, BuchiSet.of(1), w)
        assert not accepts_buchi(a, BuchiSet.of(2), w)

    def test_buchi_on_a_covering_lasso_with_many_anchors(self):
        rng = random.Random(0)
        a = random_automaton(rng, 400, 2)
        scc = max(analyze(a).terminal_sccs, key=len)
        tr = muller_to_buchi_maximal(a, MullerTable.of(scc))
        b = tr.automaton
        w = loop_lasso(a, scc)
        inf, anchors = reference_lasso(b, w)
        assert anchors >= 100
        assert inf_set(b, w) == inf
        assert accepts_buchi(b, tr.accepting, w)
        assert not tr.accepting.accepting.isdisjoint(inf)
        for q in rng.sample(range(b.n_states), 40):
            assert accepts_buchi(b, BuchiSet.of(q), w) == (q in inf)


@st.composite
def automaton_and_lasso(draw):
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    tokens = tuple("abc"[:r])
    flat = tuple(draw(st.integers(0, n - 1)) for _ in range(n * r))
    a = DetAutomaton(alphabet=tokens, n_states=n, initial=draw(st.integers(0, n - 1)), delta=flat)
    u = tuple(draw(st.sampled_from(tokens)) for _ in range(draw(st.integers(0, 5))))
    v = tuple(draw(st.sampled_from(tokens)) for _ in range(draw(st.integers(1, 5))))
    return a, LassoWord(u, v)


@given(automaton_and_lasso())
@settings(max_examples=200, deadline=None)
def test_normalization_invariance(pair):
    a, w = pair
    base = inf_set(a, w)
    assert inf_set(a, LassoWord(w.prefix + w.period, w.period)) == base
    assert inf_set(a, LassoWord(w.prefix, w.period + w.period)) == base
    assert base == brute_inf_set(a, w)


class TestAcceptance:
    def test_muller_examples(self, ex1):
        t = MullerTable.of({0})
        assert accepts_muller(ex1, t, LassoWord("", "a"))
        assert not accepts_muller(ex1, t, LassoWord("a", "b"))

    def test_buchi_example(self, ex1):
        assert accepts_buchi(ex1, BuchiSet.of(0), LassoWord("b", "ab"))

    def test_buchi_rejects(self, ex1):
        assert not accepts_buchi(ex1, BuchiSet.of(0), LassoWord("", "b"))


class TestLassoWord:
    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            LassoWord("ab", "")

    def test_symbol_at_unrolls(self):
        w = LassoWord("ab", "c")
        assert [w.symbol_at(i) for i in range(5)] == ["a", "b", "c", "c", "c"]
