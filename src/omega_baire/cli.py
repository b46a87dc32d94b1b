"""Command-line interface.

Verdicts and reports go to standard output, diagnostics to standard error.
Exit codes are a stable contract: 0 success or verdict, 1 selftest
failures, 2 parse error, 3 budget exceeded, 4 precondition violated,
5 alphabet mismatch, 6 internal error (a self-check of the program failed).
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import time
from pathlib import Path

from .automaton import DetAutomaton, MullerTable
from .baire import (
    TriState,
    build_baire_witness,
    build_meagre_complement,
    build_open_witness,
    classify_meagre,
)
from .errors import (
    AlphabetMismatch,
    FormatError,
    PreconditionViolated,
    SizeGuard,
)
from .fileformat import (
    format_lasso,
    parse_integer,
    parse_lasso_text,
    read_automaton,
    serialize_chunks,
)
from .loops import DEFAULT_ENUMERATION_BUDGET, analyze, enumerate_loops, is_loop
from .oracle import (
    DEFAULT_PRODUCT_BUDGET,
    RandomSpec,
    accepts,
    language_subset_oracle,
    random_instance,
    verify_baire_witness,
)
from .to_buchi import muller_to_buchi_maximal

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_ALPHABET = 5
EXIT_INTERNAL = 6


def _load_muller(path: str) -> tuple[DetAutomaton, MullerTable]:
    a, acc = read_automaton(path)
    if not isinstance(acc, MullerTable):
        raise PreconditionViolated(f"{path}: expected a Muller automaton")
    return a, acc


def _write(path: str, a: DetAutomaton, acc, origins=None) -> None:
    chunks = serialize_chunks(a, acc, origins)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(chunks)


def _fmt_set(z) -> str:
    return "{" + ",".join(str(s) for s in sorted(z)) + "}"


def cmd_analyze(args) -> int:
    a, acc = read_automaton(args.file)
    analysis = analyze(a)
    print(f"alphabet: {' '.join(a.alphabet)}")
    print(f"states: {a.n_states}  initial: {a.initial}")
    print(f"reachable: {len(analysis.reachable)}")
    for i, scc in enumerate(analysis.sccs):
        mark = " terminal" if i in analysis.terminal else ""
        print(f"scc {i}: {_fmt_set(scc)}{mark}")
    edges = " ".join(f"{u}->{v}" for u, v in sorted(analysis.condensation_edges))
    print(f"condensation edges: {edges if edges else '(none)'}")
    if isinstance(acc, MullerTable):
        for entry in sorted(acc.entries, key=lambda e: tuple(sorted(e))):
            loop = is_loop(a, entry, analysis)
            scc = analysis.scc_id_of_set(entry) is not None
            terminal = analysis.is_terminal_set(entry)
            print(
                f"entry {_fmt_set(entry)}: loop={'yes' if loop else 'no'}"
                f" scc={'yes' if scc else 'no'}"
                f" terminal={'yes' if terminal else 'no'}"
            )
    else:
        print(f"buchi accepting: {_fmt_set(acc.accepting)}")
    if args.enumerate_loops:
        loops = enumerate_loops(a, budget=args.loop_budget, analysis=analysis)
        print(f"loops ({len(loops)}): {' '.join(_fmt_set(z) for z in loops)}")
    if args.dot:
        Path(args.dot).write_text(_condensation_dot(analysis), encoding="utf-8")
        print(f"wrote condensation graph to {args.dot}", file=sys.stderr)
    return EXIT_OK


def _condensation_dot(analysis) -> str:
    lines = ["digraph condensation {"]
    for i, scc in enumerate(analysis.sccs):
        shape = "doublecircle" if i in analysis.terminal else "circle"
        lines.append(f'  n{i} [label="{_fmt_set(scc)}", shape={shape}];')
    for u, v in sorted(analysis.condensation_edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_baire(args) -> int:
    # The files to write; options that do nothing, or two outputs that name
    # one file, are usage errors (exit 2) before anything is read.
    outs = [args.out_open, args.out_meagre_complement]
    if args.buchi:
        outs.append(args.out_buchi_open or outs[0] + ".buchi")
        outs.append(args.out_buchi_meagre_complement or outs[1] + ".buchi")
    elif args.no_prune or args.out_buchi_open or args.out_buchi_meagre_complement:
        args.usage_error(
            "--no-prune, --out-buchi-open and --out-buchi-meagre-complement need --buchi"
        )
    if len({Path(out).resolve() for out in outs}) < len(outs):
        args.usage_error("two output options name the same file")
    a, t = _load_muller(args.file)
    analysis = analyze(a)
    if args.buchi:
        witness = build_baire_witness(a, t, analysis, prune=not args.no_prune)
        (a1, t1), (a2, t2) = witness.open_muller, witness.meagre_complement_muller
        origin = witness.state_origin
    else:
        open_w = build_open_witness(a, t, analysis)
        a1, t1, origin = open_w.automaton, open_w.table, open_w.origin
        a2, t2 = build_meagre_complement(a, analysis)

    _write(args.out_open, a1, t1, origin)
    _write(args.out_meagre_complement, a2, t2)

    nonempty = classify_meagre(a, t, analysis) is TriState.NO
    print(f"input: {a.n_states} states, {len(t.entries)} table entries")
    print(
        f"open witness: {a1.n_states} states, "
        f"{len(t1.entries)} table entries -> {args.out_open}"
    )
    print(
        f"meagre complement: {a2.n_states} states, "
        f"{len(t2.entries)} table entries -> {args.out_meagre_complement}"
    )
    print(f"E nonempty: {'true' if nonempty else 'false'}")
    print(
        "note: the meagre set F' is the complement of the language of the"
        " meagre-complement automaton"
    )

    if args.buchi:
        b1, acc1 = witness.open_buchi
        b2, acc2 = witness.meagre_complement_buchi
        out_b1, out_b2 = outs[2:]
        _write(out_b1, b1, acc1, origin)
        _write(out_b2, b2, acc2, witness.meagre_buchi_origin)
        print(
            f"buchi open witness: {b1.n_states} states, "
            f"{len(acc1.accepting)} accepting -> {out_b1}"
        )
        print(
            f"buchi meagre complement: {b2.n_states} states "
            f"(unpruned {witness.meagre_buchi_unpruned}) -> {out_b2}"
        )
    return EXIT_OK


def cmd_to_buchi(args) -> int:
    a, t = _load_muller(args.file)
    # A non-maximal loop entry raises PreconditionViolated (exit 4).
    translation = muller_to_buchi_maximal(a, t, prune=not args.no_prune)
    if translation.report.non_loops:
        print(translation.report.describe(), file=sys.stderr)
    _write(args.out, translation.automaton, translation.accepting, translation.origin)
    print(
        f"buchi automaton: {translation.automaton.n_states} states "
        f"(unpruned {translation.unpruned_state_count}), "
        f"{len(translation.accepting.accepting)} accepting -> {args.out}"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    if args.mode == "member":
        a, acc = read_automaton(args.file)
        try:
            w = parse_lasso_text(args.word, a.alphabet)
        except ValueError as e:
            print(str(e), file=sys.stderr)
            return EXIT_PARSE
        print("true" if accepts(a, acc, w) else "false")
        return EXIT_OK

    aA, accA = read_automaton(args.file)
    aB, accB = read_automaton(args.other)
    verdict = language_subset_oracle(
        aA,
        accA,
        aB,
        accB,
        product_budget=args.product_budget,
        loop_budget=args.loop_budget,
    )
    print("true" if verdict.holds else "false")
    if verdict.counterexample is not None:
        print(f"witness {format_lasso(verdict.counterexample, aA.alphabet)}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = 0
    skipped = 0
    timings: list[float] = []
    master = random.Random(args.seed)
    for trial in range(args.trials):
        n = master.randint(2, args.states)
        entries = master.randint(0, args.entries)
        seed = master.randrange(2**32)
        spec = RandomSpec(
            n_states=n,
            alphabet_size=args.alphabet,
            table_entry_count=min(entries, 2**n if n < 16 else entries),
            seed=seed,
        )
        a, t = random_instance(spec)
        start = time.perf_counter()
        report = verify_baire_witness(
            a,
            t,
            lasso_bound=args.lasso_bound,
            loop_budget=args.loop_budget,
            product_budget=args.product_budget,
            skip_over_budget=True,
        )
        timings.append(time.perf_counter() - start)
        status = "pass" if report.ok else "fail"
        if not report.ok:
            failures += 1
        trial_skipped = sum(c.status == "skip" for c in report.checks)
        skipped += trial_skipped
        if trial_skipped:
            status += f" skipped={trial_skipped}"
        print(f"trial {trial} n={n} entries={len(t.entries)} seed={seed} {status}")
        if not report.ok:
            print(report.render())
    summary = f"selftest trials={args.trials} failures={failures}"
    print(summary + (f" skipped={skipped}" if skipped else ""))

    if timings:
        ms = sorted(x * 1000 for x in timings)
        p50 = statistics.median(ms)
        p90 = ms[math.ceil(0.9 * len(ms)) - 1]  # nearest rank
        print(
            f"timing ms per trial: p50={p50:.2f} p90={p90:.2f} max={ms[-1]:.2f}",
            file=sys.stderr,
        )
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _integer(text: str) -> int:
    """argparse type for an int written as a file writes one
    (`parse_integer`), so that '٢', '1_0' or ' 1' is a usage error (exit 2)
    instead of a silently coerced run."""
    value = parse_integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return value


def _at_least(lo: int):
    """argparse type for an `_integer` no smaller than `lo`, so that a
    smaller value is a usage error too."""

    def integer(text: str) -> int:
        value = _integer(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-baire",
        description=(
            "Analyze deterministic omega-automata and construct open and"
            " meagre witnesses for their languages."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="SCC and table-entry report for a file")
    p.add_argument("file")
    p.add_argument("--enumerate-loops", action="store_true")
    p.add_argument("--loop-budget", type=_at_least(0), default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--dot", metavar="PATH", help="write condensation graph as DOT")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "baire", help="construct the open witness and the meagre complement"
    )
    p.add_argument("file")
    p.add_argument("--out-open", required=True)
    p.add_argument("--out-meagre-complement", required=True)
    p.add_argument("--buchi", action="store_true", help="also write Buchi forms")
    p.add_argument("--out-buchi-open")
    p.add_argument("--out-buchi-meagre-complement")
    p.add_argument("--no-prune", action="store_true")
    p.set_defaults(func=cmd_baire, usage_error=p.error)

    p = sub.add_parser(
        "to-buchi", help="translate a maximal-loop Muller automaton to Buchi"
    )
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--no-prune", action="store_true")
    p.set_defaults(func=cmd_to_buchi)

    p = sub.add_parser("check", help="membership and language inclusion")
    mode = p.add_subparsers(dest="mode", required=True)
    member = mode.add_parser("member", help="is the lasso accepted?")
    member.add_argument("file")
    member.add_argument("--word", required=True, metavar="U:V")
    subset = mode.add_parser("subset", help="is L(first) included in L(second)?")
    subset.add_argument("file")
    subset.add_argument("other")
    subset.add_argument("--product-budget", type=_at_least(0), default=DEFAULT_PRODUCT_BUDGET)
    subset.add_argument("--loop-budget", type=_at_least(0), default=DEFAULT_ENUMERATION_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("selftest", help="verify random instances end to end")
    p.add_argument("--states", type=_at_least(2), default=5)
    p.add_argument("--alphabet", type=_at_least(1), default=2)
    p.add_argument("--trials", type=_at_least(1), default=50)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--entries", type=_at_least(0), default=4)
    p.add_argument("--lasso-bound", type=_at_least(1), default=8)
    p.add_argument("--loop-budget", type=_at_least(0), default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--product-budget", type=_at_least(0), default=DEFAULT_PRODUCT_BUDGET)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PARSE
    except SizeGuard as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionViolated as e:
        print(str(e), file=sys.stderr)
        return EXIT_PRECONDITION
    except AlphabetMismatch as e:
        print(str(e), file=sys.stderr)
        return EXIT_ALPHABET
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
