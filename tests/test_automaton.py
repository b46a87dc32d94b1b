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
    inf_set,
    is_loop,
    loop_lasso,
    muller_to_buchi_maximal,
    parse_automaton,
    run,
    serialize_automaton,
    step,
)
from omega_baire.automaton import inf_from_state
from conftest import brute_inf_set, chain_plus_random, random_automaton, random_lasso


class TestDetAutomaton:
    def test_validation_rejects_bad_initial(self):
        with pytest.raises(BadStateIndex):
            DetAutomaton(alphabet=("a",), n_states=2, initial=2, delta=(0, 1))

    def test_validation_rejects_bad_target(self):
        for container in (list, tuple, lambda d: array("q", d)):
            for delta in ((0, 5), (0, 2), (-1, 1)):
                with pytest.raises(BadStateIndex, match="transition target out of range"):
                    DetAutomaton(alphabet=("a",), n_states=2, initial=0, delta=container(delta))

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
        # reached once, so the walk takes 100k steps.  The trace holds one
        # list slot and one int per step, about 41 B; an Inf set built as a
        # set and then copied to a frozenset takes about 117 B.
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
        assert peak / n < 64


class TestInfFromStateArguments:
    def test_empty_period_rejected(self, ex1):
        with pytest.raises(ValueError, match="nonempty"):
            inf_from_state(ex1, 0, [])

    @pytest.mark.parametrize("state", [-1, 2])
    def test_start_state_out_of_range(self, ex1, state):
        with pytest.raises(BadStateIndex):
            inf_from_state(ex1, state, [0])

    @pytest.mark.parametrize("period", [[0, 2], [-1], [1, 0, 5]])
    def test_symbol_index_out_of_range(self, ex1, period):
        with pytest.raises(ValueError, match="symbol index"):
            inf_from_state(ex1, 0, period)


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
