"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is either computed by an independent in-test oracle or
taken from a hand-checked example; tolerances and budgets are fixed here.
"""

import math
import random
import time

from omega_baire import (
    DetAutomaton,
    LassoWord,
    LoopDensity,
    MullerTable,
    RandomSpec,
    TriState,
    accepts_buchi,
    accepts_muller,
    analyze,
    boolean_table_op,
    bounded_lasso_scan,
    build_meagre_complement,
    build_open_witness,
    build_weak_buchi_open,
    buchi_state_bound,
    classify_loop_density,
    classify_meagre,
    enumerate_loops,
    is_loop,
    language_subset_oracle,
    loop_lasso,
    maximal_muller_buchi_equiv,
    muller_to_buchi_maximal,
    product,
    random_instance,
    table_subset_same_automaton,
    verify_baire_witness,
)
import omega_baire.to_buchi as to_buchi
from omega_baire.oracle import lasso_domain_size
from conftest import make_ex1, make_ex3, random_automaton, random_lasso, random_table


def conclude(label: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert not failures, f"{label}: {failures[:5]}"


def test_criterion_1_automatic_baire_property():
    """500 random instances: the witness pipeline passes every check, with
    the symbolic identity, the product-loop route, and the exhaustive-lasso
    route (bound 8) all agreeing, in under a minute."""
    symdiff_names = ("symdiff-symbolic", "symdiff-loops", "symdiff-lassos", "symdiff-agreement")
    failures = []
    master = random.Random(2024)
    start = time.perf_counter()
    trials = 500
    for trial in range(trials):
        n = master.randint(2, 6)
        entries = master.randint(0, min(4, 2**n))
        seed = master.randrange(2**32)
        a, t = random_instance(
            RandomSpec(n_states=n, alphabet_size=2, table_entry_count=entries, seed=seed)
        )
        report = verify_baire_witness(a, t, lasso_bound=8)
        statuses = {c.name: c.status for c in report.checks}
        if any(c.status == "fail" for c in report.checks):
            failures.append((trial, seed, report.render()))
        if any(statuses.get(name) != "pass" for name in symdiff_names):
            failures.append((trial, seed, "a required route did not run"))
    # the same contract through the command-line surface
    import contextlib
    import io

    from omega_baire.cli import run as cli_run

    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        code = cli_run(
            ["selftest", "--states", "6", "--trials", "500", "--seed", "2024", "--entries", "4"]
        )
    if code != 0:
        failures.append(f"cli selftest exit {code}")
    if "selftest trials=500 failures=0" not in buf_out.getvalue():
        failures.append("cli selftest summary missing")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    conclude(
        "1 automatic-baire-property",
        failures,
        f"{trials} instances twice (direct and cli), {elapsed:.1f}s",
    )


def _scc_entry_table(a: DetAutomaton, rng: random.Random) -> MullerTable:
    an = analyze(a)
    r = len(a.alphabet)
    blocks = []
    for scc in an.sccs:
        if scc.isdisjoint(an.reachable):
            continue
        if len(scc) == 1 and not any(a.delta[min(scc) * r + x] == min(scc) for x in range(r)):
            continue
        if rng.random() < 0.6:
            blocks.append(scc)
    entries = list(blocks)
    if rng.random() < 0.3:
        mask = rng.randrange(1 << a.n_states)
        junk = frozenset(s for s in range(a.n_states) if mask >> s & 1)
        if not is_loop(a, junk):
            entries.append(junk)
    return MullerTable(frozenset(entries))


def test_criterion_2_translation_correct_and_quadratic():
    """200 random maximal-loop instances: translated language equals the
    source language by the exact oracle and over every lasso with both parts
    bounded by 8 (more than ten thousand words per instance); the unpruned
    state count is exactly the quadratic bound.  The hand-traced example
    behaves symbol for symbol as expected."""
    failures = []
    rng = random.Random(77)
    lassos_per_instance = lasso_domain_size(2, 8, 8)
    assert lassos_per_instance >= 10_000
    for trial in range(200):
        a = random_automaton(rng, rng.randint(1, 6))
        t = _scc_entry_table(a, rng)
        translation = muller_to_buchi_maximal(a, t)

        verdict = maximal_muller_buchi_equiv(a, t, translation.automaton, translation.accepting)
        if not verdict.holds:
            failures.append((trial, "oracle", verdict.counterexample))
            continue

        prod = product(a, translation.automaton)
        left, right = prod.left, prod.right
        entries = t.entries
        acc = translation.accepting.accepting

        def disagree(z):
            zl = frozenset(left[q] for q in z)
            zr = frozenset(right[q] for q in z)
            return (zl in entries) != (not zr.isdisjoint(acc))

        witness = bounded_lasso_scan(prod.automaton, disagree, 8, 8, budget=1 << 22)
        if witness is not None:
            failures.append((trial, "lasso", witness))

        expected = buchi_state_bound(a, t)
        n = a.n_states
        if translation.unpruned_state_count != expected or expected > n + n * n:
            failures.append((trial, "bound", translation.unpruned_state_count, expected))

    # hand-traced runs on the two-state swap automaton
    ex3 = make_ex3()
    tr = muller_to_buchi_maximal(ex3, MullerTable.of({0, 1}), prune=False)
    seq = [tr.automaton.initial]
    for _ in range(4):
        seq.append(tr.automaton.delta[seq[-1] * 2 + 0])  # read symbol a
    origins = [tr.origin[s] for s in seq]
    if origins != [(0, 0), (1, 0), (0, 1), (1, 2), (0, 0)]:
        failures.append(("ex3-trace", origins))
    if not accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "a")):
        failures.append("ex3 a-omega rejected")
    if accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "b")):
        failures.append("ex3 b-omega accepted")
    if not accepts_buchi(tr.automaton, tr.accepting, LassoWord("", "ab")):
        failures.append("ex3 (ab)-omega rejected")

    conclude(
        "2 translation-correctness-and-size",
        failures,
        f"200 instances, {lassos_per_instance} lassos each",
    )


def test_criterion_3_weak_buchi():
    """Every loop of every generated open-witness Buchi automaton is inside
    the accepting set or disjoint from it."""
    failures = []
    rng = random.Random(99)
    straddles = 0
    for trial in range(300):
        a = random_automaton(rng, rng.randint(2, 10))
        t = random_table(rng, a.n_states, max_entries=4)
        weak = build_weak_buchi_open(a, t)
        acc = weak.accepting.accepting
        for z in enumerate_loops(weak.automaton):
            if not (z <= acc or z.isdisjoint(acc)):
                straddles += 1
                failures.append((trial, sorted(z)))
    conclude("3 weak-buchi", failures, "300 instances")


def _literal_dense(a: DetAutomaton, s: int, z: frozenset, bound: int) -> bool:
    """Every word up to the bound keeps every prefix of the run inside z."""
    r = len(a.alphabet)
    level = {s}
    for _ in range(bound):
        nxt = set()
        for cur in level:
            for x in range(r):
                t = a.delta[cur * r + x]
                if t not in z:
                    return False
                nxt.add(t)
        level = nxt
    return True


def _literal_nowhere_dense(a: DetAutomaton, s: int, z: frozenset, n: int) -> bool:
    """Every staying word of length up to n has an extension (within another
    n symbols) that leaves z."""
    r = len(a.alphabet)

    def escapes(state: int, budget: int) -> bool:
        if budget == 0:
            return False
        for x in range(r):
            t = a.delta[state * r + x]
            if t not in z:
                return True
        return any(
            escapes(a.delta[state * r + x], budget - 1)
            for x in range(r)
            if a.delta[state * r + x] in z
        )

    endpoints = {s}
    level = {s}
    for _ in range(n):
        nxt = set()
        for cur in level:
            for x in range(r):
                t = a.delta[cur * r + x]
                if t in z:
                    nxt.add(t)
        endpoints |= nxt
        level = nxt
    return all(escapes(e, n) for e in endpoints)


def test_criterion_4_density_dichotomy():
    """The classifier matches a direct prefix-tree check on every loop of
    random automata, from every loop state."""
    failures = []
    rng = random.Random(41)
    loops_checked = 0
    for trial in range(100):
        n = rng.randint(1, 6)
        a = random_automaton(rng, n)
        an = analyze(a)
        for z in enumerate_loops(a, analysis=an):
            for s in sorted(z):
                verdict = classify_loop_density(a, s, z, an)
                dense = _literal_dense(a, s, z, 2 * n)
                nowhere = _literal_nowhere_dense(a, s, z, n)
                if dense == nowhere:
                    failures.append((trial, s, sorted(z), "dichotomy broken"))
                expected = LoopDensity.DENSE if dense else LoopDensity.NOWHERE_DENSE
                if verdict is not expected:
                    failures.append((trial, s, sorted(z), verdict, expected))
                loops_checked += 1
    conclude("4 density-dichotomy", failures, f"{loops_checked} loop/state pairs")


def test_criterion_5_table_algebra():
    """Boolean table operations and entry-wise inclusion agree with lasso
    semantics and with the product-loop oracle on a thousand random
    (automaton, table, table) triples."""
    failures = []
    rng = random.Random(55)
    ops = ("union", "intersection", "difference", "symmetric-difference")
    combine = {
        "union": lambda p, q: p or q,
        "intersection": lambda p, q: p and q,
        "difference": lambda p, q: p and not q,
        "symmetric-difference": lambda p, q: p != q,
    }
    for trial in range(1000):
        a = random_automaton(rng, rng.randint(1, 8))
        t1 = random_table(rng, a.n_states, max_entries=4)
        t2 = random_table(rng, a.n_states, max_entries=4)
        for op in ops:
            table = boolean_table_op(a, t1, t2, op)
            for _ in range(5):
                w = random_lasso(rng, a.alphabet, 4, 4)
                want = combine[op](accepts_muller(a, t1, w), accepts_muller(a, t2, w))
                if accepts_muller(a, table, w) != want:
                    failures.append((trial, op, w))
        fast = table_subset_same_automaton(a, t1, t2)
        slow = language_subset_oracle(a, t1, a, t2)
        if fast != slow.holds:
            failures.append((trial, "subset-disagreement"))
        if not slow.holds:
            w = slow.counterexample
            if not (accepts_muller(a, t1, w) and not accepts_muller(a, t2, w)):
                failures.append((trial, "witness-invalid"))
    conclude("5 table-algebra", failures, "1000 triples")


def test_criterion_6_polynomial_time(monkeypatch):
    """The three constructions handle two thousand states in under a second
    each, and their runtime grows at most quadratically (log-log slope of
    the translation at most 2.2)."""
    # Time the numpy kernel at every size, so the slope compares like with like.
    monkeypatch.setattr(to_buchi, "_numpy_kernel", lambda cells: True)
    failures = []
    sizes = (250, 500, 1000, 2000)
    times = {}

    def build(n):
        rng = random.Random(1234)
        flat = tuple(rng.randrange(n) for _ in range(2 * n))
        return DetAutomaton(alphabet=("a", "b"), n_states=n, initial=0, delta=flat)

    for n in sizes:
        a = build(n)
        an = analyze(a)
        table = MullerTable(frozenset(an.terminal_sccs))
        best = {"open": 1e9, "meagre": 1e9, "buchi": 1e9}
        for _ in range(3):
            t0 = time.perf_counter()
            build_open_witness(a, table, an)
            best["open"] = min(best["open"], time.perf_counter() - t0)
            t0 = time.perf_counter()
            build_meagre_complement(a, an)
            best["meagre"] = min(best["meagre"], time.perf_counter() - t0)
            t0 = time.perf_counter()
            muller_to_buchi_maximal(a, table, an)
            best["buchi"] = min(best["buchi"], time.perf_counter() - t0)
        times[n] = best
        if n == 2000:
            for op, secs in best.items():
                if secs >= 1.0:
                    failures.append((op, f"{secs:.2f}s at n=2000"))

    slope = (math.log(times[2000]["buchi"]) - math.log(times[250]["buchi"])) / (
        math.log(2000 * 2) - math.log(250 * 2)
    )
    if slope > 2.2:
        failures.append(f"translation log-log slope {slope:.2f} > 2.2")
    detail = ", ".join(
        f"n={n}: buchi {times[n]['buchi'] * 1000:.0f}ms" for n in sizes
    )
    conclude("6 polynomial-time", failures, f"{detail}, slope {slope:.2f}")


def test_criterion_6_deep_block(monkeypatch):
    """A block whose layers walk far also translates in under a second at
    two thousand states, with runtime growing at most quadratically (log-log
    slope at most 2.2): a one-letter cycle through every state in random
    order, whose layer j walks around the cycle from member j - 1 up to
    member j, so the deepest walks take about as many steps as the block has
    members."""
    monkeypatch.setattr(to_buchi, "_numpy_kernel", lambda cells: True)
    failures = []
    sizes = (500, 1000, 2000)
    times = {}
    for n in sizes:
        order = list(range(n))
        random.Random(n).shuffle(order)
        delta = [0] * n
        for s, t in zip(order, order[1:] + order[:1]):
            delta[s] = t
        a = DetAutomaton(alphabet=("a",), n_states=n, initial=0, delta=delta)
        an = analyze(a)
        table = MullerTable.of(range(n))
        best = 1e9
        for _ in range(3):
            t0 = time.perf_counter()
            muller_to_buchi_maximal(a, table, an)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    if times[2000] >= 1.0:
        failures.append(f"{times[2000]:.2f}s at n=2000")
    slope = (math.log(times[2000]) - math.log(times[500])) / (math.log(2000) - math.log(500))
    if slope > 2.2:
        failures.append(f"translation log-log slope {slope:.2f} > 2.2")
    detail = ", ".join(f"n={n}: {times[n] * 1000:.0f}ms" for n in sizes)
    conclude("6 polynomial-time, deep block", failures, f"{detail}, slope {slope:.2f}")


def test_criterion_7_canonical_example():
    """The two-state automaton of the eventually-only-a language: empty open
    witness, the whole state space as the meagre-complement table, inclusion
    of the language in the meagre set, and the expected classifier verdicts."""
    failures = []
    ex1 = make_ex1()
    t = MullerTable.of({0})

    open_w = build_open_witness(ex1, t)
    if open_w.table.entries != frozenset():
        failures.append("open table not empty")
    rng = random.Random(8)
    if any(
        accepts_muller(open_w.automaton, open_w.table, random_lasso(rng, ("a", "b")))
        for _ in range(200)
    ):
        failures.append("open language not empty")

    a2, t2 = build_meagre_complement(ex1)
    if t2.entries != frozenset({frozenset({0, 1})}):
        failures.append(f"meagre-complement table {sorted(map(sorted, t2.entries))}")

    # F <= F' means F never meets the meagre-complement language
    inter = boolean_table_op(ex1, t, t2, "intersection")
    if any(is_loop(ex1, e) for e in inter.entries):
        failures.append("intersection table contains a loop")
    complement_entries = frozenset(
        frozenset(s for s in range(2) if mask >> s & 1)
        for mask in range(4)
        if frozenset(s for s in range(2) if mask >> s & 1) not in t2.entries
    )
    verdict = language_subset_oracle(ex1, t, ex1, MullerTable(complement_entries))
    if not verdict.holds:
        failures.append("subset F <= F' fails by oracle")
    for _ in range(500):
        w = random_lasso(rng, ("a", "b"))
        if accepts_muller(ex1, t, w) and accepts_muller(ex1, t2, w):
            failures.append(("lasso both in F and meagre-complement", w))
            break

    if classify_meagre(ex1, t) is not TriState.YES:
        failures.append("F not classified meagre")
    if classify_loop_density(ex1, 0, {0, 1}) is not LoopDensity.DENSE:
        failures.append("terminal-SCC sweep language not dense")
    if classify_loop_density(ex1, 0, {0}) is not LoopDensity.NOWHERE_DENSE:
        failures.append("a-only sweep language not nowhere dense")

    report = verify_baire_witness(ex1, t)
    if not report.ok:
        failures.append(report.render())
    conclude("7 canonical-example", failures)
