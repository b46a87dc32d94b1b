"""The verifier's loop checks decide per SCC and enumerate only where their
per-SCC facts leave the question open.  The enumerating forms they replace
are kept here as references: on random instances and on sabotaged bundles
the checks must give the same verdict, witness lasso and report, and on a
correct bundle they must do neither per-member SCC passes nor subset
enumeration."""

import dataclasses
import random
import tracemalloc
from typing import Callable

import pytest

import omega_baire.baire as baire_mod
import omega_baire.loops as loops_mod
import omega_baire.oracle as oracle_mod
from omega_baire import (
    BuchiSet,
    DetAutomaton,
    MullerTable,
    PreconditionViolated,
    RandomSpec,
    SizeGuard,
    accepts_buchi,
    accepts_muller,
    analyze,
    build_baire_witness,
    build_meagre_complement,
    build_open_witness,
    check_maximal_loops,
    inf_set,
    iter_loops,
    loop_lasso,
    maximal_muller_buchi_equiv,
    muller_to_buchi_maximal,
    product,
    random_instance,
    verify_baire_witness,
)
from omega_baire.baire import OpenWitness
from omega_baire.loops import DEFAULT_ENUMERATION_BUDGET, cyclic_sccs
from omega_baire.oracle import DEFAULT_PRODUCT_BUDGET, SubsetVerdict, _checked_verdict
from conftest import random_automaton, random_table


def reference_equiv(aA, t, aB, b, *, product_budget=DEFAULT_PRODUCT_BUDGET, analysis=None):
    """`maximal_muller_buchi_equiv` with one SCC pass per block member.  It
    analyses `aA` itself, whatever `analysis` the verifier hands over."""
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

    def first_violation(sub, want):
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
            z = first_violation(sub, lambda c: frozenset(left[p] for p in c) == scc_set)
            if z is not None:
                return _checked_verdict(aA, t, aB, b, loop_lasso(P, z))
        else:
            z = first_violation(region, lambda c: any(hit[p] for p in c))
            if z is not None:
                return _checked_verdict(aB, b, aA, t, loop_lasso(P, z))
    return SubsetVerdict(True, None)


def reference_subset_oracle(aA, accA, aB, accB, *, loop_budget=DEFAULT_ENUMERATION_BUDGET):
    """`language_subset_oracle` by testing every product loop in
    `iter_loops` order, charged 2^|D| for every product SCC D up front."""
    accA.validate_for(aA.n_states)
    accB.validate_for(aB.n_states)
    prod = product(aA, aB)
    left, right = prod.left, prod.right
    for z in iter_loops(prod.automaton, budget=loop_budget):
        zl = frozenset(left[q] for q in z)
        zr = frozenset(right[q] for q in z)
        if accepted(accA, zl) and not accepted(accB, zr):
            return _checked_verdict(aA, accA, aB, accB, loop_lasso(prod.automaton, z))
    return SubsetVerdict(True, None)


def accepted(acc, z) -> bool:
    """Whether an Inf set `z` is accepted by a Muller table or a Buchi set."""
    if isinstance(acc, MullerTable):
        return z in acc.entries
    return not z.isdisjoint(acc.accepting)


def reference_first_symdiff_loop(prod, in_symdiff, t, t1, meagre, loop_budget):
    """`symdiff-loops` by testing every loop in `iter_loops` order."""
    return next(filter(in_symdiff, iter_loops(prod.automaton, budget=loop_budget)), None)


def in_symdiff_of(prod, t, t1, meagre) -> Callable[[frozenset[int]], bool]:
    """The verifier's `symdiff-loops` predicate over the product of F and E."""
    left, right = prod.left, prod.right

    def in_symdiff(z):
        zl = frozenset(left[q] for q in z)
        zr = frozenset(right[q] for q in z)
        return ((zl in t.entries) != (zr in t1.entries)) and zl in meagre.entries

    return in_symdiff


def instances(seed: int, count: int, max_states: int = 8):
    """(rng, automaton, table) triples drawn as `selftest` draws them, over
    one to three letters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_states)
        spec = RandomSpec(
            n_states=n,
            alphabet_size=rng.randint(1, 3),
            table_entry_count=min(rng.randint(0, 5), 2**n),
            seed=rng.randrange(2**32),
        )
        yield (rng, *random_instance(spec))


def family_meagre(n: int):
    """The meagre complement of the n-state automaton of the at-scale
    family (a uniform random 2-letter table from random.Random(5)) and its
    layered translation.  At n=120 the complement's one block has 94 states
    and the translation 8,676."""
    rng = random.Random(5)
    a = DetAutomaton(("a", "b"), n, 0, tuple(rng.randrange(n) for _ in range(2 * n)))
    a2, t2 = build_meagre_complement(a)
    return a2, t2, muller_to_buchi_maximal(a2, t2)


def reports(monkeypatch, a, t, **kwargs):
    """The report of `verify_baire_witness`, and the report with both loop
    checks run by their references."""
    report = verify_baire_witness(a, t, skip_over_budget=True, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(oracle_mod, "maximal_muller_buchi_equiv", reference_equiv)
        m.setattr(oracle_mod, "_first_symdiff_loop", reference_first_symdiff_loop)
        ref = verify_baire_witness(a, t, skip_over_budget=True, **kwargs)
    return report, ref


def call_counter(monkeypatch, module, name) -> list[int]:
    """Wrap `module.name` so that the one-element list returned counts its
    calls."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def assert_same_report(report, ref):
    assert report.render() == ref.render()
    assert [c.detail for c in report.checks] == [c.detail for c in ref.checks]


def test_reports_match_references_at_every_budget(monkeypatch):
    # Small budgets put skips on both sides of every loop check.  The
    # reference charges the loop budget 2^|D| for every reachable product
    # SCC D up front; the refinement charges only the SCCs it expands.  So
    # where only the reference skips `symdiff-loops`, the check passes or
    # skips and the two routes still agree; elsewhere the reports agree.
    budgets = [
        {},
        {"loop_budget": 1 << 6},
        {"loop_budget": 1 << 10, "product_budget": 24},
        {"product_budget": 6, "lasso_bound": 2},
    ]
    skipped = only_reference_skipped = 0
    for rng, a, t in instances(seed=31, count=120, max_states=10):
        report, ref = reports(monkeypatch, a, t, **rng.choice(budgets))
        loops, agreement = report.checks[1], report.checks[3]
        if ref.checks[1].status == "skip" and loops.status != "skip":
            assert loops.status == "pass" and agreement.status != "fail"
            others = [c for c in report.checks if c not in (loops, agreement)]
            assert others == [c for c in ref.checks if c.name not in (loops.name, agreement.name)]
            only_reference_skipped += 1
        else:
            assert_same_report(report, ref)
        skipped += any(c.status == "skip" for c in report.checks)
    assert (loops.name, agreement.name) == ("symdiff-loops", "symdiff-agreement")
    assert skipped >= 10 and only_reference_skipped >= 5


# ---------------------------------------------------------------------------
# Sabotaged meagre-complement Buchi automata: b2-language must fail where the
# reference fails, with the same witness.


def redirect_one_transition(rng, tr):
    a = tr.automaton
    if a.n_states < 2:
        return tr
    delta = list(a.delta)
    cell = rng.randrange(len(delta))
    delta[cell] = (delta[cell] + rng.randrange(1, a.n_states)) % a.n_states
    return dataclasses.replace(tr, automaton=dataclasses.replace(a, delta=tuple(delta)))


def accepting_off_top_corner(rng, tr):
    n = tr.automaton.n_states
    moved = frozenset((q + 1) % n for q in tr.accepting.accepting)
    return dataclasses.replace(tr, accepting=BuchiSet(moved))


def accepting_at_layer_0(rng, tr):
    # Layer 0 copies the states outside the blocks, so the new hit lies in
    # a region over an SCC that is no table block.
    layer0 = [q for q in range(tr.automaton.n_states) if tr.origin[q][1] == 0]
    extra = rng.choice(layer0)
    return dataclasses.replace(tr, accepting=BuchiSet(tr.accepting.accepting | {extra}))


@pytest.mark.parametrize(
    "sabotage", [redirect_one_transition, accepting_off_top_corner, accepting_at_layer_0]
)
def test_sabotaged_translation_same_report_as_reference(monkeypatch, sabotage):
    real = baire_mod.muller_to_buchi_maximal
    failed = 0
    for rng, a, t in instances(seed=47, count=150):
        seed = rng.randrange(2**32)

        def sabotaged(*args, **kwargs):
            return sabotage(random.Random(seed), real(*args, **kwargs))

        monkeypatch.setattr(baire_mod, "muller_to_buchi_maximal", sabotaged)
        report, ref = reports(monkeypatch, a, t)
        assert_same_report(report, ref)
        failed += report.checks[6].status == "fail"
    assert report.checks[6].name == "b2-language"
    assert failed >= 20


def test_sabotaged_translation_same_verdict_as_reference():
    # The verdicts themselves, outside any report.
    caught = 0
    for rng, a, t in instances(seed=53, count=150, max_states=10):
        a2, t2 = build_meagre_complement(a)
        tr = muller_to_buchi_maximal(a2, t2)
        for sabotage in (redirect_one_transition, accepting_off_top_corner, accepting_at_layer_0):
            broken = sabotage(rng, tr)
            got = maximal_muller_buchi_equiv(a2, t2, broken.automaton, broken.accepting)
            want = reference_equiv(a2, t2, broken.automaton, broken.accepting)
            assert got == want
            caught += not got.holds
    assert caught >= 60


def test_layer_skip_at_scale_same_verdict_as_reference():
    # One layered transition that stays in its layer is sent one layer up on
    # the same base state, so a run can pass that layer without seeing its
    # required state.  The product region of the 94-state block has 8,676
    # states, and the member family is the part of the check that fails.
    a2, t2, tr = family_meagre(120)
    aB = tr.automaton
    r = len(aB.alphabet)
    state_of = {tr.origin[q]: q for q in range(aB.n_states)}
    q, x, s, layer = max(
        (q, x, *tr.origin[aB.delta[q * r + x]])
        for q in range(aB.n_states)
        for x in range(r)
        if 0 < tr.origin[q][1] == tr.origin[aB.delta[q * r + x]][1]
        and (tr.origin[aB.delta[q * r + x]][0], tr.origin[q][1] + 1) in state_of
    )
    delta = list(aB.delta)
    delta[q * r + x] = state_of[s, layer + 1]
    broken = dataclasses.replace(aB, delta=tuple(delta))
    args = (a2, t2, broken, tr.accepting)
    got = maximal_muller_buchi_equiv(*args, product_budget=1 << 14)
    assert got == reference_equiv(*args, product_budget=1 << 14)
    assert not got.holds
    w = got.counterexample
    assert accepts_buchi(broken, tr.accepting, w) and not accepts_muller(a2, t2, w)


# ---------------------------------------------------------------------------
# Sabotaged open witnesses: symdiff-loops must fail where the reference
# fails, with the same witness.


def merged_states(w: OpenWitness) -> list[int]:
    return [s for s, o in w.origin.items() if isinstance(o, frozenset)]


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_open_table_entry_edit_same_report_as_reference(monkeypatch, edit):
    real = build_open_witness

    def sabotaged(a, t, analysis=None):
        w = real(a, t, analysis)
        entries = set(w.table.entries)
        if edit == "drop" and entries:
            entries.remove(min(entries, key=min))
        missing = [m for m in merged_states(w) if frozenset({m}) not in entries]
        if edit == "add" and missing:
            entries.add(frozenset({missing[0]}))
        return dataclasses.replace(w, table=MullerTable(frozenset(entries)))

    monkeypatch.setattr(baire_mod, "build_open_witness", sabotaged)
    failed = 0
    for rng, a, t in instances(seed=59, count=150):
        report, ref = reports(monkeypatch, a, t)
        assert_same_report(report, ref)
        failed += report.checks[1].status == "fail"
    assert report.checks[1].name == "symdiff-loops"
    assert failed >= 20


def with_twin(a1: DetAutomaton, m: int) -> DetAutomaton:
    """`a1` with a twin m' of merged state m: m's last symbol leads to m',
    and every symbol leads m' back to m.  The product SCC over m's terminal
    SCC then has the two right states m and m'."""
    r = len(a1.alphabet)
    twin = a1.n_states
    delta = list(a1.delta)
    delta[m * r + r - 1] = twin
    return dataclasses.replace(a1, n_states=twin + 1, delta=tuple(delta) + (m,) * r)


def test_twin_merged_state_enumerates_the_same_loop(monkeypatch):
    subset_tests = call_counter(monkeypatch, loops_mod, "_strongly_connected")
    found = 0
    for rng, a, t in instances(seed=61, count=150):
        analysis = analyze(a)
        w = build_open_witness(a, t, analysis)
        _, meagre = build_meagre_complement(a, analysis)
        for m in merged_states(w):
            a1 = with_twin(w.automaton, m)
            # With the table as built, and with {m} toggled: an accepted m
            # over a rejected SCC puts the violating loops on m alone.
            for t1 in (w.table, MullerTable(w.table.entries ^ {frozenset({m})})):
                prod = product(a, a1)
                pred = in_symdiff_of(prod, t, t1, meagre)
                args = (prod, pred, t, t1, meagre, DEFAULT_ENUMERATION_BUDGET)
                z = oracle_mod._first_symdiff_loop(*args)
                assert z == reference_first_symdiff_loop(*args)
                found += z is not None
    assert found >= 100
    assert subset_tests[0] > 0


# ---------------------------------------------------------------------------
# The refinement against enumeration.


def test_refined_loop_finds_a_loop_iff_enumeration_does():
    # Over the product of F with E, and of F with an unrelated automaton,
    # labelled by the right projection: per meagre entry f, a loop whose
    # left projection is f and whose right projection is an entry of the
    # right-hand table, or is none.
    found = split = 0
    for rng, a, t in instances(seed=73, count=150, max_states=5):
        analysis = analyze(a)
        _, meagre = build_meagre_complement(a, analysis)
        w = build_open_witness(a, t, analysis)
        spec = RandomSpec(rng.randint(2, 3), len(a.alphabet), 4, rng.randrange(2**32))
        for right_automaton, right_table in ((w.automaton, w.table), random_instance(spec)):
            prod = product(a, right_automaton)
            P, left, right = prod.automaton, prod.left, prod.right
            loops = list(iter_loops(P))
            for f in meagre.entries:
                region = [q for q in range(P.n_states) if left[q] in f]

                def wanted(c):
                    return {left[q] for q in c} == f

                for rejected in (
                    lambda zr: zr in right_table.entries,
                    lambda zr: zr not in right_table.entries,
                ):
                    args = (P, region, wanted, rejected, right)
                    z = loops_mod.refined_loop(*args, DEFAULT_ENUMERATION_BUDGET)
                    want = [y for y in loops if wanted(y) and rejected(frozenset(right[q] for q in y))]
                    assert (z is None) == (not want)
                    if z is not None:
                        assert z in want
                        found += 1
                        try:
                            loops_mod.refined_loop(*args, 0)
                        except SizeGuard:
                            split += 1
    assert found >= 100 and split >= 20


def test_subset_oracle_matches_reference():
    # Random pairs with a Muller table or a Buchi set on either side: the
    # same verdict and counterexample as enumerating every product loop.
    # Where the reference runs over its loop budget, the oracle may decide,
    # with a verified counterexample.  Many pairs hold their first violating
    # loop in a product SCC after a cyclic one.
    rng = random.Random(89)
    kinds = set()
    later = over = 0
    for case in range(1200):
        sides = []
        for muller in (case % 2, case // 2 % 2):
            n = rng.randint(1, 5)
            a = random_automaton(rng, n)
            if muller:
                sides.append((a, random_table(rng, n)))
            else:
                sides.append((a, BuchiSet(s for s in range(n) if rng.random() < 0.4)))
        (aA, accA), (aB, accB) = sides
        budget = rng.choice((1 << 6, DEFAULT_ENUMERATION_BUDGET))
        try:
            ref = reference_subset_oracle(aA, accA, aB, accB, loop_budget=budget)
        except SizeGuard:
            ref = None
        try:
            got = oracle_mod.language_subset_oracle(aA, accA, aB, accB, loop_budget=budget)
        except SizeGuard:
            assert ref is None
            continue
        kinds.add((type(accA), type(accB), got.holds))
        if ref is None:
            over += 1
            continue
        assert got == ref
        if not ref.holds:
            P = product(aA, aB).automaton
            analysis = analyze(P)
            first_loop = next(iter_loops(P, analysis=analysis))
            bad_loop = inf_set(P, ref.counterexample)
            later += analysis.scc_of[min(bad_loop)] > analysis.scc_of[min(first_loop)]
    assert len(kinds) == 8
    assert later >= 40 and over >= 40


def test_refined_loop_over_budget():
    # 0 and 1 swap on a and stay on b.  With no label set rejected, the
    # refinement expands {0, 1}, then {1} and {0}: three SCCs.
    a = DetAutomaton(("a", "b"), 2, 0, (1, 0, 0, 1))
    args = (a, range(2), lambda c: True, lambda z: False, range(2))
    assert loops_mod.refined_loop(*args, 3) is None
    with pytest.raises(SizeGuard, match="^loop enumeration needs more than 2 subset checks$"):
        loops_mod.refined_loop(*args, 2)


# ---------------------------------------------------------------------------
# Work counts on correct bundles.


def test_b2_language_one_scc_pass_per_block(monkeypatch):
    passes = call_counter(monkeypatch, oracle_mod, "cyclic_sccs")
    wide = 0
    for rng, a, t in instances(seed=67, count=120, max_states=10):
        w = build_baire_witness(a, t)
        a2, t2 = w.meagre_complement_muller
        blocks = check_maximal_loops(a2, t2).blocks
        passes[0] = 0
        assert maximal_muller_buchi_equiv(a2, t2, *w.meagre_complement_buchi).holds
        assert passes[0] == len(blocks)
        wide += any(len(c) > 1 for c in blocks)
    assert wide >= 20


def test_b2_language_traced_peak_linear_in_product_states():
    # At n=100 the product of the complement and its translation has 5,036
    # states, all over one 72-state block.  Successor and predecessor
    # bitmasks over that region, Θ(|region|²) bits, would put the traced
    # peak near 1.3 KB per product state; the walks keep it near 360 B.
    a2, t2, tr = family_meagre(100)
    n_product = product(a2, tr.automaton, budget=1 << 14).automaton.n_states
    tracemalloc.start()
    try:
        verdict = maximal_muller_buchi_equiv(
            a2, t2, tr.automaton, tr.accepting, product_budget=1 << 14
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak <= 1024 * n_product, peak / n_product


def test_symdiff_loops_tests_no_subset(monkeypatch):
    subset_tests = call_counter(monkeypatch, loops_mod, "_strongly_connected")
    per_call: list[int] = []
    real_first = oracle_mod._first_symdiff_loop

    def first(*args):
        before = subset_tests[0]
        z = real_first(*args)
        per_call.append(subset_tests[0] - before)
        return z

    monkeypatch.setattr(oracle_mod, "_first_symdiff_loop", first)
    for rng, a, t in instances(seed=71, count=120, max_states=10):
        assert verify_baire_witness(a, t).ok
    assert len(per_call) == 120 and set(per_call) == {0}
