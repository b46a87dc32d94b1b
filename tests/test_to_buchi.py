import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omega_baire import (
    DetAutomaton,
    LassoWord,
    MullerTable,
    PreconditionViolated,
    accepts_buchi,
    accepts_muller,
    analyze,
    buchi_state_bound,
    check_maximal_loops,
    enumerate_loops,
    muller_to_buchi_maximal,
    product,
)
import omega_baire.to_buchi as to_buchi
from omega_baire.loops import level_order
from omega_baire.oracle import bounded_lasso_scan, maximal_muller_buchi_equiv
from conftest import chain_plus_random, pinned_kernel, random_automaton, random_lasso


def scc_table(a: DetAutomaton, rng: random.Random, junk: bool = True) -> MullerTable:
    """Random table whose loop entries are SCCs, optionally with inert junk."""
    an = analyze(a)
    entries = [
        scc
        for scc in an.sccs
        if not scc.isdisjoint(an.reachable) and rng.random() < 0.6
    ]
    entries = [z for z in entries if len(z) > 1 or _has_self_loop(a, min(z))]
    if junk and rng.random() < 0.4:
        mask = rng.randrange(1 << a.n_states)
        candidate = frozenset(s for s in range(a.n_states) if mask >> s & 1)
        from omega_baire import is_loop

        if not is_loop(a, candidate):
            entries.append(candidate)
    return MullerTable(frozenset(entries))


def _has_self_loop(a: DetAutomaton, s: int) -> bool:
    r = len(a.alphabet)
    return any(a.delta[s * r + x] == s for x in range(r))


def layered_run(translation, word):
    """Origin sequence of the layered run on a finite word."""
    a = translation.automaton
    cur = a.initial
    seq = [translation.origin[cur]]
    for tok in word:
        cur = a.delta[cur * len(a.alphabet) + a.symbol_index[tok]]
        seq.append(translation.origin[cur])
    return seq


class TestCheckMaximalLoops:
    def test_examples(self, ex1, ex2):
        assert bool(check_maximal_loops(ex1, MullerTable.of({0, 1})))
        report = check_maximal_loops(ex1, MullerTable.of({0}))
        assert not report.ok
        assert report.non_maximal == (frozenset({0}),)
        assert bool(check_maximal_loops(ex2, MullerTable.of({1}, {2})))

    def test_non_loops_reported_and_accepted(self, ex2):
        report = check_maximal_loops(ex2, MullerTable.of({0}, {1}))
        assert report.ok
        assert report.non_loops == (frozenset({0}),)
        assert report.blocks == (frozenset({1}),)
        assert "dropped" in report.describe()

    def test_whole_scc_entry_peak_is_linear(self):
        # A one-letter 30,000-cycle whose table is the cycle: the entry
        # equals an SCC, so its loop test needs no k x k bitmasks (about
        # 186 MB traced for this k).  The analysis itself peaks at about
        # 230 B a state.
        k = 30000
        a = DetAutomaton(alphabet=("a",), n_states=k, initial=0, delta=[(s + 1) % k for s in range(k)])
        t = MullerTable.of(range(k))
        tracemalloc.start()
        try:
            report = check_maximal_loops(a, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.blocks == (frozenset(range(k)),)
        assert peak < 400 * k


class TestStateBound:
    def test_examples(self, ex2, ex3):
        assert buchi_state_bound(ex3, MullerTable.of({0, 1})) == 2 + 4
        assert buchi_state_bound(ex2, MullerTable.of({1}, {2})) == 3 + 1 + 1
        assert buchi_state_bound(ex2, MullerTable.of()) == 3

    def test_non_loop_entries_do_not_count(self, ex2):
        assert buchi_state_bound(ex2, MullerTable.of({0})) == 3

    def test_construction_matches_bound(self):
        rng = random.Random(3)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 6))
            t = scc_table(a, rng)
            translation = muller_to_buchi_maximal(a, t, prune=False)
            bound = buchi_state_bound(a, t)
            assert translation.unpruned_state_count == bound
            assert translation.automaton.n_states == bound
            n = a.n_states
            assert bound <= n + n * n


class TestLayeredOrigins:
    def test_keys_are_exactly_the_output_states(self, ex3):
        for prune in (True, False):
            origin = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}), prune=prune).origin
            n = len(origin)
            assert list(origin) == list(range(n))
            for key in (-1, n, n + 5, "0", None):
                assert key not in origin
                assert origin.get(key) is None
                with pytest.raises(KeyError):
                    origin[key]
            assert origin.get(n - 1) is not None


class TestEx3HandTraces:
    def test_layered_run_a_omega(self, ex3):
        tr = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}), prune=False)
        assert layered_run(tr, "aaaa") == [(0, 0), (1, 0), (0, 1), (1, 2), (0, 0)]

    def test_layered_run_b_omega(self, ex3):
        tr = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}), prune=False)
        assert layered_run(tr, "bbb") == [(0, 0), (0, 1), (0, 1), (0, 1)]

    def test_accepting_state_is_top_corner(self, ex3):
        tr = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}), prune=False)
        assert {tr.origin[s] for s in tr.accepting.accepting} == {(1, 2)}

    def test_verdicts(self, ex3):
        tr = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}))
        assert accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "a"))
        assert not accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "b"))
        assert accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "ab"))


class TestTranslation:
    def test_precondition_violated(self, ex1):
        with pytest.raises(PreconditionViolated):
            muller_to_buchi_maximal(ex1, MullerTable.of({0}))

    def test_empty_table_is_copy_with_empty_accepting(self, ex1):
        tr = muller_to_buchi_maximal(ex1, MullerTable.of())
        assert tr.automaton.n_states == 2
        assert tr.accepting.accepting == frozenset()
        assert tr.unpruned_state_count == 2

    def test_projection_property(self):
        # Erasing layers from the layered run gives the original run.
        rng = random.Random(7)
        for _ in range(40):
            a = random_automaton(rng, rng.randint(1, 6))
            tr = muller_to_buchi_maximal(a, scc_table(a, rng), prune=False)
            word = [rng.choice(a.alphabet) for _ in range(20)]
            bases = [o[0] for o in layered_run(tr, word)]
            cur = a.initial
            expected = [cur]
            for tok in word:
                cur = a.delta[cur * len(a.alphabet) + a.symbol_index[tok]]
                expected.append(cur)
            assert bases == expected

    def test_layer_monotonicity_and_promotion(self):
        # Within a block below the top layer, layers never decrease and
        # promotions land exactly on the next state in the fixed order.
        rng = random.Random(11)
        for _ in range(40):
            a = random_automaton(rng, rng.randint(2, 6))
            t = scc_table(a, rng, junk=False)
            tr = muller_to_buchi_maximal(a, t, prune=False)
            orderings = {min(b): sorted(b) for b in tr.report.blocks}
            block_of = {}
            for b in tr.report.blocks:
                for s in b:
                    block_of[s] = min(b)
            word = [rng.choice(a.alphabet) for _ in range(40)]
            seq = layered_run(tr, word)
            for (b0, j0), (b1, j1) in zip(seq, seq[1:]):
                if j0 >= 1 and j1 >= 1 and block_of.get(b0) == block_of.get(b1):
                    members = orderings[block_of[b0]]
                    if j0 < len(members):
                        assert j1 in (j0, j0 + 1)
                        if j1 == j0 + 1:
                            assert b1 == members[j0]

    def test_sweep_property(self):
        # Reaching layer j from layer 0 means the bases already visited the
        # first j states of the block in order.
        rng = random.Random(13)
        for _ in range(40):
            a = random_automaton(rng, rng.randint(2, 6))
            t = scc_table(a, rng, junk=False)
            tr = muller_to_buchi_maximal(a, t, prune=False)
            orderings = {frozenset(b): sorted(b) for b in tr.report.blocks}
            word = [rng.choice(a.alphabet) for _ in range(40)]
            seq = layered_run(tr, word)
            for i, (base, layer) in enumerate(seq):
                if layer >= 1:
                    block = next(b for b in tr.report.blocks if base in b)
                    needed = set(orderings[frozenset(block)][:layer])
                    # walk backwards to the last layer-0 position
                    start = i
                    while seq[start][1] != 0:
                        start -= 1
                    visited = {b for b, _ in seq[start : i + 1]}
                    assert needed <= visited

    def test_language_equality_random(self):
        rng = random.Random(17)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 6))
            t = scc_table(a, rng)
            tr = muller_to_buchi_maximal(a, t)
            verdict = maximal_muller_buchi_equiv(a, t, tr.automaton, tr.accepting)
            assert verdict.holds
            for _ in range(40):
                w = random_lasso(rng, a.alphabet)
                assert accepts_muller(a, t, w) == accepts_buchi(
                    tr.automaton, tr.accepting, w
                )

    def test_language_equality_exhaustive_small(self):
        # every lasso with both parts bounded by twice the state count
        rng = random.Random(19)
        for _ in range(25):
            a = random_automaton(rng, rng.randint(1, 5))
            t = scc_table(a, rng)
            tr = muller_to_buchi_maximal(a, t)
            prod = product(a, tr.automaton)
            left, right = prod.left, prod.right
            t_entries = t.entries
            acc = tr.accepting.accepting

            def disagree(z):
                zl = frozenset(left[q] for q in z)
                zr = frozenset(right[q] for q in z)
                return (zl in t_entries) != (not zr.isdisjoint(acc))

            bound = 2 * a.n_states
            assert bounded_lasso_scan(prod.automaton, disagree, bound, bound) is None

    def test_pruning_preserves_language(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_automaton(rng, rng.randint(1, 6))
            t = scc_table(a, rng)
            pruned = muller_to_buchi_maximal(a, t, prune=True)
            unpruned = muller_to_buchi_maximal(a, t, prune=False)
            assert pruned.automaton.n_states <= unpruned.automaton.n_states
            for _ in range(30):
                w = random_lasso(rng, a.alphabet)
                assert accepts_buchi(
                    pruned.automaton, pruned.accepting, w
                ) == accepts_buchi(unpruned.automaton, unpruned.accepting, w)

    def test_block_order_does_not_change_language(self):
        # Relabelling the states s -> n-1-s reverses the order in which
        # every block is swept.
        rng = random.Random(29)
        for _ in range(30):
            a = random_automaton(rng, rng.randint(1, 5))
            t = scc_table(a, rng, junk=False)
            n, r = a.n_states, len(a.alphabet)
            flip = lambda s: n - 1 - s
            flipped = DetAutomaton(
                alphabet=a.alphabet,
                n_states=n,
                initial=flip(a.initial),
                delta=[flip(a.delta[flip(s) * r + x]) for s in range(n) for x in range(r)],
            )
            flipped_t = MullerTable(frozenset(frozenset(map(flip, e)) for e in t.entries))
            asc = muller_to_buchi_maximal(a, t)
            desc = muller_to_buchi_maximal(flipped, flipped_t)
            verdict = maximal_muller_buchi_equiv(a, t, desc.automaton, desc.accepting)
            assert verdict.holds
            for _ in range(40):
                w = random_lasso(rng, a.alphabet)
                assert accepts_buchi(asc.automaton, asc.accepting, w) == accepts_buchi(
                    desc.automaton, desc.accepting, w
                )

    def test_vectorized_path_matches_python_path(self, monkeypatch):
        numpy_runs = []
        real = to_buchi._layered_delta_numpy
        monkeypatch.setattr(
            to_buchi, "_layered_delta_numpy", lambda *args: numpy_runs.append(1) or real(*args)
        )
        rng = random.Random(31)
        for _ in range(20):
            a = random_automaton(rng, rng.randint(2, 30))
            t = scc_table(a, rng)
            for prune in (False, True):
                with pinned_kernel(False):
                    py = muller_to_buchi_maximal(a, t, prune=prune)
                with pinned_kernel(True):
                    np_ = muller_to_buchi_maximal(a, t, prune=prune)
                assert py.automaton == np_.automaton
                assert py.accepting == np_.accepting
                assert py.unpruned_state_count == np_.unpruned_state_count
                assert dict(py.origin) == dict(np_.origin)
        assert len(numpy_runs) == 20 * 2  # each kernel ran once per pair

    def test_weakness_not_required_of_translation(self):
        # the layered automaton of a full SCC is generally not weak, but its
        # loops still hit the accepting corner exactly for covering runs
        tr = muller_to_buchi_maximal(
            DetAutomaton(alphabet=("a", "b"), n_states=2, initial=0, delta=(1, 0, 0, 1)),
            MullerTable.of({0, 1}),
        )
        loops = enumerate_loops(tr.automaton)
        assert loops  # sanity: the layered graph has loops


@st.composite
def block_mixes(draw):
    """An automaton made of a chain of components, each transition staying in
    its component or going to a later one, with a random initial state: the
    components before the initial one are unreachable and any component with
    an exit is not terminal.  The table is a random choice of its SCCs, so
    its blocks include non-terminal, one-state self-loop and initial ones,
    beside unreachable SCCs that are dropped."""
    r = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(sizes)
    delta = []
    lo = 0
    for size in sizes:
        for _ in range(size * r):
            stay = draw(st.integers(0, 3)) > 0
            delta.append(draw(st.integers(lo, lo + size - 1 if stay else n - 1)))
        lo += size
    a = DetAutomaton(
        alphabet=tuple("abc"[:r]), n_states=n, initial=draw(st.integers(0, n - 1)), delta=delta
    )
    sccs = analyze(a).sccs
    chosen = draw(st.lists(st.booleans(), min_size=len(sccs), max_size=len(sccs)))
    return a, MullerTable(frozenset(z for z, keep in zip(sccs, chosen) if keep))


def walk_reference(flat, r: int, initial: int):
    """The states one level-order walk from `initial` reaches in the flat
    table, ascending, and the table restricted to them and renumbered."""
    reference = sorted(s for s, _, _ in level_order(flat, r, initial))
    renumber = {old: new for new, old in enumerate(reference)}
    return reference, [renumber[flat[old * r + x]] for old in reference for x in range(r)]


def assert_numpy_prune_is_the_walk(a: DetAutomaton, t: MullerTable):
    """The numpy kernel's pruned translation keeps exactly the states that
    one level-order walk from the initial state reaches in its unpruned
    table, in ascending order, with the table restricted to them and
    renumbered.  Origins name grid states one to one, so equal origins are
    equal kept states.  Returns the pruned translation."""
    with pinned_kernel(True):
        tr = muller_to_buchi_maximal(a, t)
        full = muller_to_buchi_maximal(a, t, prune=False)
    reference, expected = walk_reference(full.automaton.delta, len(a.alphabet), a.initial)
    assert [tr.origin[i] for i in range(len(tr.origin))] == [full.origin[s] for s in reference]
    assert list(tr.automaton.delta) == expected
    assert reference[tr.automaton.initial] == a.initial
    return tr


# {0,1} is unreachable from the initial state 2, a one-state self-loop block
@example((DetAutomaton(("a", "b"), 3, 2, (1, 0, 0, 2, 2, 2)), MullerTable.of({0, 1}, {2})))
# the same from 0: {0,1} holds the initial state and is not terminal
@example((DetAutomaton(("a", "b"), 3, 0, (1, 0, 0, 2, 2, 2)), MullerTable.of({0, 1}, {2})))
# a cycles 0 -> 2 -> 1 -> 0, only 0 exits, to 3, and the run enters at 0:
# layer 0 never holds 0, so 3 is reached only from a layer of the block
@example((DetAutomaton(("a", "b"), 5, 4, (2, 3, 0, 1, 1, 2, 3, 3, 0, 0)), MullerTable.of({0, 1, 2})))
@given(block_mixes())
@settings(max_examples=150, deadline=None)
def test_seeded_prune_keeps_what_the_initial_state_reaches(instance):
    # The numpy prune keeps per block what each layer's walk inside the block
    # graph reaches, and in layer 0 the closure of its seeds: the initial
    # state and the targets that leave a block or its top corner.  That is
    # what one walk from the initial state reaches, on non-terminal,
    # one-state, initial and unreachable blocks alike.
    assert_numpy_prune_is_the_walk(*instance)


# b jumps two back, so members q + 1 and q + 2 both push into member q
@example((DetAutomaton(("a", "b"), 130, 0, [t for s in range(130) for t in ((s - 1) % 130, (s - 2) % 130)]), MullerTable.of(range(130))))
@example((chain_plus_random(60, 16), MullerTable.of(range(60))))
@given(block_mixes())
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("push_ratio", [0, 1 << 62], ids=["push", "or-all"])
def test_block_rounds_of_either_kind_keep_what_the_walk_reaches(push_ratio, instance):
    # `_block_layers` pushes the changed words alone after a quiet round and
    # ORs every row after a busy one.  Held to one kind of round throughout,
    # it still keeps what one walk from the initial state reaches.
    with mock.patch.object(to_buchi, "_PUSH_RATIO", push_ratio):
        assert_numpy_prune_is_the_walk(*instance)


# the two instances above, pruned and not
@example((DetAutomaton(("a", "b"), 3, 2, (1, 0, 0, 2, 2, 2)), MullerTable.of({0, 1}, {2})), True)
@example((DetAutomaton(("a", "b"), 3, 0, (1, 0, 0, 2, 2, 2)), MullerTable.of({0, 1}, {2})), False)
@given(block_mixes(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_kernels_agree_on_every_block_shape(instance, prune):
    # The pure-Python and the numpy kernel build the same translation, and
    # the Python prune keeps exactly what one walk from the initial state
    # reaches, renumbered in ascending order.
    a, t = instance
    r = len(a.alphabet)
    calls = []
    real = to_buchi._prune_python

    def spy(flat, r_, seeds):
        result = real(flat, r_, seeds)
        calls.append((list(flat), result))
        return result

    with pinned_kernel(False), mock.patch.object(to_buchi, "_prune_python", spy):
        py = muller_to_buchi_maximal(a, t, prune=prune)
    with pinned_kernel(True):
        np_ = muller_to_buchi_maximal(a, t, prune=prune)
    assert py.automaton == np_.automaton
    assert py.accepting == np_.accepting
    assert py.unpruned_state_count == np_.unpruned_state_count
    assert dict(py.origin) == dict(np_.origin)
    if prune:
        ((flat, (new_flat, kept)),) = calls
        reference, expected = walk_reference(flat, r, a.initial)
        assert list(kept) == reference
        assert new_flat == expected
    else:
        assert not calls


@pytest.mark.parametrize(
    ("seed", "dominated"),
    [pytest.param(seed, dominated, id=str(seed)) for seed, dominated in
     ((0, 91), (16, 215), (1 << 62, 173), (41, 86))],
)
def test_prune_walks_agree_with_the_reference_walk(seed, dominated):
    # Each seed draws other b-jumps into the 60-state SCC, so other block
    # graphs and other depths of the layers' walks in `_block_layers`; on
    # each, the numpy prune keeps what one walk from the initial state
    # reaches in the unpruned table.  Of the 3660 grid states, 118 go
    # whatever the block graph: the 59 top-layer states besides the corner,
    # and in each layer j below the top member j, since entering it
    # promotes to the next corner.  The `dominated` others go because every
    # path inside the block from member j - 1 to them passes through member
    # j, so layer j never holds them.
    tr = assert_numpy_prune_is_the_walk(chain_plus_random(60, seed), MullerTable.of(range(60)))
    assert tr.unpruned_state_count - tr.automaton.n_states == 118 + dominated


def test_kernel_follows_the_crossover_once_numpy_is_imported(monkeypatch):
    # With numpy imported, a translation of `_NUMPY_CELLS` output cells or
    # more runs the numpy kernel even far below `VECTORIZE_THRESHOLD`, and a
    # smaller one runs Python; the file bytes are those of the other kernel.
    # chain_plus_random(n) with its whole SCC as the table has 2(n + n^2)
    # cells: 220 at n=10, 264 at n=11 and 65,160 at n=180.
    import numpy  # noqa: F401

    from omega_baire import automaton, serialize_automaton

    runs = []
    for name in ("_layered_delta_python", "_layered_delta_numpy"):
        real = getattr(to_buchi, name)
        monkeypatch.setattr(
            to_buchi, name, lambda *args, name=name, real=real: runs.append(name) or real(*args)
        )
    for n, kernel in ((10, "python"), (11, "numpy"), (180, "numpy")):
        a = chain_plus_random(n)
        t = MullerTable.of(range(n))
        runs.clear()
        tr = muller_to_buchi_maximal(a, t)
        cells = tr.unpruned_state_count * len(a.alphabet)
        assert cells < to_buchi.VECTORIZE_THRESHOLD
        assert (cells >= automaton._NUMPY_CELLS) == (kernel == "numpy")
        assert runs == [f"_layered_delta_{kernel}"], n
        with pinned_kernel(kernel == "python"):
            other = muller_to_buchi_maximal(a, t)
        assert runs[1:] == [f"_layered_delta_{'numpy' if kernel == 'python' else 'python'}"]
        assert serialize_automaton(tr.automaton, tr.accepting, tr.origin) == serialize_automaton(
            other.automaton, other.accepting, other.origin
        )
    # Without numpy imported, only `VECTORIZE_THRESHOLD` switches.
    assert to_buchi._numpy_kernel(automaton._NUMPY_CELLS)
    monkeypatch.delitem(sys.modules, "numpy")
    assert not to_buchi._numpy_kernel(to_buchi.VECTORIZE_THRESHOLD - 1)
    assert to_buchi._numpy_kernel(to_buchi.VECTORIZE_THRESHOLD)


def test_python_kernel_peak_memory_per_output_state():
    # The chain-plus-random SCC at n=180: 65,160 cells, just below
    # `VECTORIZE_THRESHOLD`, 31,572 output states, on the Python kernel
    # (pinned, since numpy may already be imported).  The traced peak is
    # about 149 B per output state, reached when the prune has built the
    # renumbered table: it holds the unpruned table (about 82 B), the
    # renumbering map (about 40 B), the kept states (4 B) and the new table
    # (about 18 B).  The walk marks states in a bytearray, with no parent links.
    n = 180
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    analysis = analyze(a)
    tracemalloc.start()
    try:
        with pinned_kernel(False):
            tr = muller_to_buchi_maximal(a, t, analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.unpruned_state_count * len(a.alphabet) < to_buchi.VECTORIZE_THRESHOLD
    assert tr.automaton.n_states == 31572
    assert peak / tr.automaton.n_states < 165


def test_numpy_kernel_peak_memory_per_output_state():
    # The same 31,572 output states as the Python kernel's test above, on
    # the numpy kernel (pinned, since the table is below
    # `VECTORIZE_THRESHOLD`).  The traced peak is about 28.3 B per output
    # state: the table (8 B a state at two letters), the kept states and
    # the renumbering map (4 B each), the visited mask and one slice of
    # `_PRUNE_ROWS` rows on its way into the table; no unpruned table is
    # made.  One more array of 4 B a state at the peak, such as a copy of
    # the kept states, would pass 30 B, and so would the 31.1 B of a build
    # that holds the unpruned table beside the pruned one.
    import numpy  # noqa: F401  (imported here so that its import is not traced)

    n = 180
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    analysis = analyze(a)
    tracemalloc.start()
    try:
        with pinned_kernel(True):
            tr = muller_to_buchi_maximal(a, t, analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.automaton.n_states == 31572
    assert peak / tr.automaton.n_states < 30


def test_translation_peak_memory_per_output_state():
    # One 400-state SCC, about 158k output states on the numpy kernel.  At
    # its traced peak it holds the table (8 B a state at two letters), the
    # kept list, the renumbering map, the visited mask and one slice of rows:
    # about 19.4 B per output state.  One more array of 4 B a state at the
    # peak, such as a copy of the kept list, would pass 23 B, and so would
    # the 26.4 B of a build that holds the unpruned table as well.
    import numpy  # noqa: F401  (imported here so that its import is not traced)

    n = 400
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    analysis = analyze(a)
    tracemalloc.start()
    try:
        tr = muller_to_buchi_maximal(a, t, analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.unpruned_state_count * len(a.alphabet) >= to_buchi.VECTORIZE_THRESHOLD
    assert peak / tr.automaton.n_states < 23


def test_numpy_translation_peak_memory_per_unpruned_cell():
    # Every table is C ints, 4 B a cell, and only the kept rows are written:
    # the numpy translation of the chain-plus-random SCC at n=300 (180,600
    # unpruned cells) peaks at about 10.4 B per unpruned cell traced, against
    # 13.4 B when it held the unpruned table too and 25.3 B with 8-byte
    # tables.
    import numpy  # noqa: F401  (imported here so that its import is not traced)

    n = 300
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    analysis = analyze(a)
    tracemalloc.start()
    try:
        with pinned_kernel(True):
            tr = muller_to_buchi_maximal(a, t, analysis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.automaton.delta.typecode == "i" and tr.origin._kept.typecode == "i"
    assert peak / (tr.unpruned_state_count * len(a.alphabet)) <= 12


def test_numpy_unpruned_peak_memory_per_state():
    # Without pruning, the numpy kernel keeps every state of the same n=300
    # SCC (90,300 states) and writes the rows through the same writer, with
    # no kept list and no renumbering: the traced peak is about 10.6 B a
    # state, the table (8 B a state at two letters) and one slice of rows.
    # A kept list or an identity renumbering map (4 B a state each) would
    # pass 14 B, and so would the 16.7 B of a build that copied a (states,
    # letters) numpy table into the automaton's table.
    import numpy  # noqa: F401  (imported here so that its import is not traced)

    n = 300
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    analysis = analyze(a)
    tracemalloc.start()
    try:
        with pinned_kernel(True):
            tr = muller_to_buchi_maximal(a, t, analysis, prune=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.automaton.n_states == tr.unpruned_state_count == n + n * n
    assert isinstance(tr.origin._kept, range)
    assert peak / tr.automaton.n_states < 14


def test_translation_cells_fit_a_c_int():
    # Every state number and cell index of a translation the budget admits
    # fits the 4-byte C ints of the tables.
    assert to_buchi.MAX_TRANSLATION_CELLS < 2**31


def test_long_entries_abbreviated_in_the_diagnostic():
    # A 30,000-cycle on a whose b goes back to 0: the cycle less its last
    # state is a loop but not an SCC, and the cycle less state 1 is no loop.
    # Each is given by its first states and its size, not its 29,999 states.
    k = 30000
    delta = [x for s in range(k) for x in ((s + 1) % k, 0)]
    a = DetAutomaton(alphabet=("a", "b"), n_states=k, initial=0, delta=delta)
    t = MullerTable.of(range(k - 1), set(range(k)) - {1})
    with pytest.raises(PreconditionViolated) as err:
        muller_to_buchi_maximal(a, t)
    message = str(err.value)
    assert len(message.encode()) < 1024
    assert message == (
        "non-maximal loop entries: {0,1,2,3,4,5,6,7,8,9,...} (29999 states); "
        "dropped non-loop entries: {0,2,3,4,5,6,7,8,9,10,...} (29999 states)"
    )
    # Short lists of short entries read as before.
    report = check_maximal_loops(a, MullerTable.of({1}, {2, 3}))
    assert report.describe() == "dropped non-loop entries: {1} {2,3}"
    many = check_maximal_loops(a, MullerTable.of(*({s} for s in range(1, 13))))
    assert many.describe().endswith("{9} {10} ... (12 entries)")
