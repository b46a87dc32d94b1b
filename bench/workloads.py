"""The three benchmark workloads.

Each workload generates its inputs from a seed in its constructor (that is
the set-up) and then offers an endless cycle of steps.  A step is a build
step or a query step; it times its primary calls with the `clock`, checks
the outputs against references that do not come from the package, and,
when tracing, replays the inner public calls of what it just called so
that every layer gets measured spans.
"""

from __future__ import annotations

import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import reference as R
from tracer import Tracer
from omega_baire import (
    DetAutomaton,
    LassoWord,
    MullerTable,
    RandomSpec,
    SizeGuard,
    accepts_buchi,
    accepts_muller,
    analyze,
    bounded_lasso_scan,
    buchi_state_bound,
    build_baire_witness,
    build_meagre_complement,
    build_open_witness,
    build_weak_buchi_open,
    check_maximal_loops,
    iter_loops,
    language_subset_oracle,
    loop_lasso,
    maximal_muller_buchi_equiv,
    muller_to_buchi_maximal,
    parse_automaton,
    parse_lasso_text,
    product,
    random_instance,
    serialize_automaton,
    verify_baire_witness,
)
from omega_baire.oracle import lasso_domain_size
from omega_baire.to_buchi import VECTORIZE_THRESHOLD


class Clock:
    def __init__(self):
        self.start = time.perf_counter()
        self.elapsed: float | None = None

    def stop(self) -> None:
        if self.elapsed is None:
            self.elapsed = time.perf_counter() - self.start


def rss_mb(maxrss_kib: int) -> float:
    return maxrss_kib * 1024 / 1e6


def peak_rss_mb() -> float:
    return rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def letters(word: list[int]) -> tuple[str, ...]:
    return tuple(R.LETTERS[x] for x in word)


def random_word(rng: random.Random, r: int, lo: int, hi: int) -> list[int]:
    return [rng.randrange(r) for _ in range(rng.randint(lo, hi))]


def kernel_kind(unpruned: int, r: int) -> str:
    """The translation kernel muller_to_buchi_maximal picks for an output
    of `unpruned` states over `r` letters: pure Python or numpy."""
    return "small" if unpruned * r < VECTORIZE_THRESHOLD else "large"


class Workload:
    """Shared bookkeeping: operations attempted and failed, peak memory."""

    def __init__(self, params: dict, seed: int, workdir: Path):
        self.p = params
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.build_rss: list[float] = []
        self.query_rss: list[float] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"mismatch: {what}", file=sys.stderr)

    def finish_rss(self) -> None:
        """In-process workloads: peak RSS of this process at the end."""
        self.query_rss.append(peak_rss_mb())


# ---------------------------------------------------------------------------
# cli-translate


def write_muller(path: Path, n: int, r: int, delta: list[int], table) -> None:
    """The automaton file format, written out here so that the package's
    serializer is not part of input generation."""
    lines = [f"alphabet {' '.join(R.LETTERS[:r])}", f"states {n}", "initial 0", "acc-type muller"]
    for s in range(n):
        for x in range(r):
            lines.append(f"trans {s} {R.LETTERS[x]} {delta[s * r + x]}")
    for entry in table:
        lines.append("accept {" + ",".join(map(str, sorted(entry))) + "}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_TO_BUCHI_LINE = re.compile(r"buchi automaton: (\d+) states \(unpruned (\d+)\), (\d+) accepting")


class CliTranslate(Workload):
    def __init__(self, params, seed, workdir, src_dir: Path):
        super().__init__(params, seed, workdir)
        n, r = params["n"], params["alphabet"]
        self.n, self.r = n, r
        self.delta = R.draw_uniform(self.rng, n, r, tuple(params["band"]))
        reach = R.reachable(r, self.delta)
        self.table = R.terminal_sccs(n, r, self.delta)
        self.bound = R.translation_bound(n, r, self.delta)
        self.in_path = workdir / "in.aut"
        self.out_path = workdir / "out.aut"
        write_muller(self.in_path, n, r, self.delta, self.table)

        table = set(self.table)
        largest = max((c for c in self.table if c & reach), key=len)
        accepted = R.covering_lasso(r, self.delta, largest)
        while True:
            rejected = (
                random_word(self.rng, r, 0, params["random_lasso_max"]),
                random_word(self.rng, r, 1, params["random_lasso_max"]),
            )
            if not R.muller_accepts(r, self.delta, table, *rejected):
                break
        self.lassos = []
        for prefix, period in (accepted, rejected):
            text = "".join(letters(prefix)) + ":" + "".join(letters(period))
            self.lassos.append((text, R.muller_accepts(r, self.delta, table, prefix, period)))

        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        code, out, _, _, _ = self.cli(["--help"])  # warm-up: bytecode and page cache
        if code != 0 or "to-buchi" not in out:
            raise RuntimeError("omega-baire --help failed")

    def describe(self) -> dict:
        return {
            "n": self.n,
            "alphabet": self.r,
            "terminal_scc_sizes": sorted(map(len, self.table), reverse=True),
            "translation_bound": self.bound,
            "input_bytes": self.in_path.stat().st_size,
            "lasso_lengths": [len(text) - 1 for text, _ in self.lassos],
            "lasso_verdicts": [verdict for _, verdict in self.lassos],
        }

    def cli(self, args: list[str]) -> tuple[int, str, str, float, float]:
        """Run one CLI command; returns exit code, stdout, stderr, wall time
        and the child's peak RSS in MB."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "omega_baire", *args],
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=self.workdir,
                env=self.env,
            )
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            out.decode(),
            err_path.read_text(errors="replace"),
            wall,
            rss_mb(usage.ru_maxrss),
        )

    def startup_s(self) -> float:
        walls = sorted(self.cli(["--help"])[3] for _ in range(3))
        return walls[1]

    def steps(self):
        return [
            ("build", self.to_buchi),
            ("query", lambda tr, clock: self.member(tr, clock, 0)),
            ("query", lambda tr, clock: self.member(tr, clock, 1)),
        ]

    def to_buchi(self, tr, clock) -> None:
        self.out_path.unlink(missing_ok=True)
        with tr.span("cli.to_buchi") as sid:
            code, out, err, wall, rss = self.cli(
                ["to-buchi", self.in_path.name, "--out", self.out_path.name]
            )
        clock.elapsed = wall
        self.build_rss.append(rss)
        m = _TO_BUCHI_LINE.search(out)
        n = self.n
        ok = (
            code == 0
            and m is not None
            and int(m[1]) <= int(m[2]) == self.bound <= n + n * n
            and self.out_path.exists()
        )
        self.expect(ok, f"to-buchi exit {code}: {out.strip()} {err.strip()[-300:]} (bound {self.bound})")
        if tr.enabled and ok:
            with tr.children(sid):
                self.replay_to_buchi(tr)

    def replay_to_buchi(self, tr) -> None:
        """cmd_to_buchi: parse, check_maximal_loops, muller_to_buchi_maximal,
        serialize.  The two middle calls each run analyze themselves."""
        text = self.in_path.read_bytes()
        with tr.span("fileformat.parse"):
            a, t = parse_automaton(text)
        tr.add("fileformat.parse_bytes", len(text))
        with tr.span("to_buchi.check_maximal") as sid:
            check_maximal_loops(a, t)
        with tr.children(sid), tr.span("loops.analyze"):
            analyze(a)
        kind = kernel_kind(self.bound, self.r)
        with tr.span(f"to_buchi.translate.{kind}") as sid:
            translation = muller_to_buchi_maximal(a, t)
        with tr.children(sid), tr.span("loops.analyze"):
            analyze(a)
        record_translation(tr, kind, a, translation)
        with tr.span("fileformat.serialize"):
            out = serialize_automaton(translation.automaton, translation.accepting, translation.origin)
        tr.add("fileformat.out_bytes", len(out.encode()))

    def member(self, tr, clock, which: int) -> None:
        word, expected = self.lassos[which]
        with tr.span("cli.member") as sid:
            code, out, err, wall, rss = self.cli(["check", "member", self.out_path.name, "--word", word])
        clock.elapsed = wall
        self.query_rss.append(rss)
        verdict = out.strip()
        self.expect(
            code == 0 and verdict == ("true" if expected else "false"),
            f"check member exit {code}: got {verdict!r}, reference {expected} {err.strip()[-300:]}",
        )
        if tr.enabled and code == 0:
            with tr.children(sid):
                text = self.out_path.read_bytes()
                with tr.span("fileformat.parse"):
                    a, acc = parse_automaton(text)
                tr.add("fileformat.parse_bytes", len(text))
                with tr.span("fileformat.parse_lasso"):
                    w = parse_lasso_text(word, a.alphabet)
                with tr.span("automaton.accepts"):
                    accepts_buchi(a, acc, w)

    def finish_rss(self) -> None:
        pass


def record_translation(tr, kind: str, a: DetAutomaton, translation) -> None:
    tr.add(f"to_buchi.{kind}.in_states", a.n_states)
    tr.add(f"to_buchi.{kind}.out_states", translation.automaton.n_states)
    tr.add(f"to_buchi.{kind}.unpruned", translation.unpruned_state_count)


# ---------------------------------------------------------------------------
# construct-query


class Rung:
    def __init__(self, rng: random.Random, spec: dict, lassos: int, lasso_max: int):
        r = spec["alphabet"]
        band = tuple(spec["band"])
        if "components" in spec:
            delta = R.draw_components(rng, spec["components"], spec["m"], r, band)
        else:
            delta = R.draw_uniform(rng, spec["n"], r, band)
        n = len(delta) // r
        self.n, self.r = n, r
        self.automaton = DetAutomaton(tuple(R.LETTERS[:r]), n, 0, delta)
        reach = R.reachable(r, delta)
        terminal = R.terminal_sccs(n, r, delta)
        entries = [c for c in terminal if rng.random() < 0.5]
        entries.append(frozenset(rng.sample(range(n), min(3, n))))
        self.table = MullerTable(frozenset(entries))
        self.bound = R.translation_bound(n, r, delta)
        self.kind = kernel_kind(self.bound, r)

        words = [R.covering_lasso(r, delta, c) for c in terminal if c & reach]
        words += [
            (random_word(rng, r, 0, lasso_max), random_word(rng, r, 1, lasso_max))
            for _ in range(lassos)
        ]
        meagre_table = set(terminal)
        self.lassos = [
            (LassoWord(letters(u), letters(v)), R.muller_accepts(r, delta, meagre_table, u, v))
            for u, v in words
        ]
        self.buchi = None
        self.terminal_sizes = sorted(map(len, terminal), reverse=True)

    def describe(self) -> dict:
        return {
            "alphabet": self.r,
            "n": self.n,
            "terminal_scc_sizes": self.terminal_sizes,
            "translation_bound": self.bound,
            "kernel": self.kind,
            "lassos": len(self.lassos),
            "accepted": sum(v for _, v in self.lassos),
        }


class ConstructQuery(Workload):
    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        self.rungs = [
            Rung(self.rng, spec, params["random_lassos_per_rung"], params["random_lasso_max"])
            for spec in params["ladder"]
        ]
        for kind in ("small", "large"):  # warm-up of both translation kernels
            rungs = [g for g in self.rungs if g.kind == kind]
            if rungs:
                g = min(rungs, key=lambda g: g.bound)
                build_baire_witness(g.automaton, g.table)

    def describe(self) -> dict:
        return {"rungs": [g.describe() for g in self.rungs]}

    def steps(self):
        return [("build", self.build), ("query", self.query)]

    def build(self, tr, clock) -> None:
        built = []
        for g in self.rungs:
            with tr.span("baire.witness") as sid:
                w = build_baire_witness(g.automaton, g.table)
            built.append((g, w, sid))
        clock.stop()
        if not self.build_rss:
            self.build_rss.append(peak_rss_mb())
        for g, w, sid in built:
            b, acc = w.meagre_complement_buchi
            n = g.n
            self.expect(
                b.n_states <= w.meagre_buchi_unpruned == g.bound <= n + n * n,
                f"rung n={n}: {b.n_states} states, unpruned {w.meagre_buchi_unpruned}, reference {g.bound}",
            )
            g.buchi = (b, acc)
            if tr.enabled:
                with tr.children(sid):
                    self.replay_witness(tr, g)

    def replay_witness(self, tr, g: Rung) -> None:
        a, t = g.automaton, g.table
        with tr.span("loops.analyze"):
            analysis = analyze(a)
        with tr.span("baire.open_witness"):
            build_open_witness(a, t, analysis)
        with tr.span("baire.meagre_complement"):
            a2, t2 = build_meagre_complement(a, analysis)
        with tr.span("baire.weak_buchi") as sid:
            build_weak_buchi_open(a, t, analysis)
        with tr.children(sid), tr.span("baire.open_witness"):
            build_open_witness(a, t, analysis)
        with tr.span(f"to_buchi.translate.{g.kind}"):
            translation = muller_to_buchi_maximal(a2, t2, analysis)
        record_translation(tr, g.kind, a, translation)

    def query(self, tr, clock) -> None:
        verdicts = []
        for g in self.rungs:
            b, acc = g.buchi
            for w, _ in g.lassos:
                with tr.span("automaton.accepts"):
                    verdicts.append(accepts_buchi(b, acc, w))
        clock.stop()
        i = 0
        for g in self.rungs:
            for w, expected in g.lassos:
                self.expect(verdicts[i] == expected, f"rung n={g.n} lasso {w}: buchi {verdicts[i]}, muller reference {expected}")
                i += 1


# ---------------------------------------------------------------------------
# verify-mix


def muller_lasso(a: DetAutomaton, t: MullerTable, w: LassoWord) -> bool:
    """Reference Muller verdict of a package-made lasso."""
    idx = {tok: i for i, tok in enumerate(a.alphabet)}
    return R.muller_accepts(
        len(a.alphabet), list(a.delta), t.entries, [idx[c] for c in w.prefix], [idx[c] for c in w.period]
    )


def loop_counts(tr, a: DetAutomaton, analysis, budget: int, stop) -> frozenset | None:
    """Enumerate loops as iter_loops does, up to the first loop `stop`
    accepts; records loops found and subsets examined (sum of 2^|C| over
    the reachable SCCs entered, which iter_loops visits in id order)."""
    hit = None
    found = 0
    with tr.span("loops.iter_loops"):
        for z in iter_loops(a, budget=budget, analysis=analysis):
            found += 1
            if stop(z):
                hit = z
                break
    last = analysis.scc_of[min(hit)] if hit is not None else len(analysis.sccs)
    tr.add("loops.loops_found", found)
    tr.add(
        "loops.subsets_examined",
        sum(
            1 << len(c)
            for i, c in enumerate(analysis.sccs)
            if i <= last and not c.isdisjoint(analysis.reachable)
        ),
    )
    return hit


LASSO_BOUND = 8  # verify_baire_witness's default lasso_bound


class VerifyMix(Workload):

    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        rng = self.rng
        self.jobs = []
        # Sizes are stratified (every size equally often) so that the mix of
        # job costs does not move from seed to seed.
        lo, hi = params["verify_n"]
        slo, shi = params["subset_n"]
        span = shi - slo + 1
        for i in range(params["pool"]):
            j = i // 2
            if i % 2 == 0:
                n = lo + j % (hi - lo + 1)
                spec = RandomSpec(n, 2, rng.randint(*params["verify_entries"]), rng.randrange(2**32))
                self.jobs.append(("verify", random_instance(spec)))
            else:
                A = self.small_instance(slo + j % span)
                if i % 4 == 1:
                    B = self.small_instance(slo + (j // span) % span)
                else:
                    extra = frozenset(rng.sample(range(A[0].n_states), rng.randint(1, A[0].n_states)))
                    B = (A[0], MullerTable(A[1].entries | {extra}))
                self.jobs.append(("subset", (A, B)))
        self.verify(Tracer(False), Clock(), self.jobs[0][1])  # warm-up
        self.attempted = self.failed = 0
        self.build_rss.clear()

    def describe(self) -> dict:
        verify = [job[0].n_states for kind, job in self.jobs if kind == "verify"]
        pairs = [(A[0].n_states, B[0].n_states) for kind, (A, B) in self.jobs if kind == "subset"]
        return {
            "verify_jobs": len(verify),
            "verify_states": sum(verify),
            "verify_table_entries": sum(len(job[1].entries) for kind, job in self.jobs if kind == "verify"),
            "subset_jobs": len(pairs),
            "subset_product_bound": sum(a * b for a, b in pairs),
        }

    def small_instance(self, n: int):
        rng = self.rng
        entries = min(2**n, rng.randint(*self.p["subset_entries"]))
        return random_instance(RandomSpec(n, 2, entries, rng.randrange(2**32)))

    def steps(self):
        out = []
        for kind, job in self.jobs:
            if kind == "verify":
                out.append(("build", lambda tr, clock, job=job: self.verify(tr, clock, job)))
            else:
                out.append(("query", lambda tr, clock, job=job: self.subset(tr, clock, job)))
        return out

    def verify(self, tr, clock, job) -> None:
        a, t = job
        with tr.span("oracle.verify") as sid:
            report = verify_baire_witness(a, t, skip_over_budget=True)
        clock.stop()
        if not self.build_rss:
            self.build_rss.append(peak_rss_mb())
        skipped = sum(c.status == "skip" for c in report.checks)
        tr.add("oracle.skipped_checks", skipped)
        bound = R.translation_bound(a.n_states, len(a.alphabet), list(a.delta))
        self.expect(
            report.ok and report.buchi_unpruned == bound,
            f"verify n={a.n_states}: ok={report.ok} unpruned {report.buchi_unpruned} reference {bound}\n{report.render()}",
        )
        if tr.enabled:
            with tr.children(sid):
                self.replay_verify(tr, a, t, bound)

    def replay_verify(self, tr, a, t, bound: int) -> None:
        """The public calls verify_baire_witness makes, on the same inputs."""
        with tr.span("loops.analyze"):
            analysis = analyze(a)
        with tr.span("baire.open_witness"):
            open_w = build_open_witness(a, t, analysis)
        with tr.span("baire.meagre_complement"):
            _, mt = build_meagre_complement(a, analysis)
        with tr.span("baire.weak_buchi") as sid:
            weak = build_weak_buchi_open(a, t, analysis)
        with tr.children(sid), tr.span("baire.open_witness"):
            build_open_witness(a, t, analysis)
        kind = kernel_kind(bound, len(a.alphabet))
        with tr.span(f"to_buchi.translate.{kind}"):
            translation = muller_to_buchi_maximal(a, mt, analysis)
        record_translation(tr, kind, a, translation)
        a1, t1 = open_w.automaton, open_w.table
        try:
            with tr.span("oracle.product"):
                prod = product(a, a1)
            tr.add("oracle.product_states", prod.automaton.n_states)
            left, right = prod.left, prod.right

            def symdiff(z):
                zl = frozenset(left[q] for q in z)
                zr = frozenset(right[q] for q in z)
                return ((zl in t.entries) != (zr in t1.entries)) and zl in mt.entries

            with tr.span("loops.analyze"):
                pa = analyze(prod.automaton)
            loop_counts(tr, prod.automaton, pa, 1 << 20, symdiff)
            with tr.span("oracle.scan"):
                bounded_lasso_scan(prod.automaton, symdiff, LASSO_BOUND, LASSO_BOUND)
            tr.add("oracle.scan_lassos", lasso_domain_size(len(a.alphabet), LASSO_BOUND, LASSO_BOUND))
        except SizeGuard:
            pass
        for ma, mtab, ba, bacc in ((a1, t1, a1, weak.accepting), (a, mt, translation.automaton, translation.accepting)):
            try:
                self.replay_equiv(tr, ma, mtab, ba, bacc)
            except SizeGuard:
                pass
        try:
            with tr.span("loops.analyze"):
                a1_analysis = analyze(a1)
            acc = weak.accepting.accepting
            loop_counts(tr, a1, a1_analysis, 1 << 20, lambda z: not (z <= acc or z.isdisjoint(acc)))
        except SizeGuard:
            pass
        with tr.span("to_buchi.bound"):
            buchi_state_bound(a, mt, analysis)

    def replay_equiv(self, tr, aA, t, aB, b) -> None:
        with tr.span("oracle.equiv") as sid:
            maximal_muller_buchi_equiv(aA, t, aB, b)
        with tr.children(sid):
            with tr.span("to_buchi.check_maximal") as cid:
                check_maximal_loops(aA, t)
            with tr.children(cid), tr.span("loops.analyze"):
                analyze(aA)
            with tr.span("oracle.product"):
                prod = product(aA, aB)
            tr.add("oracle.product_states", prod.automaton.n_states)
            with tr.span("loops.analyze"):
                analyze(aA)

    def subset(self, tr, clock, job) -> None:
        (aA, tA), (aB, tB) = job
        loop_budget = self.p["subset_loop_budget"]
        verdict = None
        with tr.span("oracle.subset") as sid:
            try:
                verdict = language_subset_oracle(aA, tA, aB, tB, loop_budget=loop_budget)
            except SizeGuard:
                tr.add("oracle.sizeguard_count")
        with tr.span("oracle.product"):
            prod = product(aA, aB)
        left, right = prod.left, prod.right

        def violation(z):
            return frozenset(left[q] for q in z) in tA.entries and frozenset(right[q] for q in z) not in tB.entries

        max_prefix = prod.automaton.n_states
        max_period = self.p["scan_max_period"]
        with tr.span("oracle.scan"):
            found = bounded_lasso_scan(prod.automaton, violation, max_prefix, max_period)
        clock.stop()
        tr.add("oracle.product_states", prod.automaton.n_states)
        tr.add("oracle.scan_lassos", lasso_domain_size(len(aA.alphabet), max_prefix, max_period))
        problems = []
        if found is not None and not (muller_lasso(aA, tA, found) and not muller_lasso(aB, tB, found)):
            problems.append(f"scan lasso {found} is not in L(A) minus L(B)")
        if verdict is not None:
            cex = verdict.counterexample
            if verdict.holds and found is not None:
                problems.append("oracle says inclusion holds, scan found a counterexample")
            if not verdict.holds:
                if not (muller_lasso(aA, tA, cex) and not muller_lasso(aB, tB, cex)):
                    problems.append(f"oracle counterexample {cex} is not in L(A) minus L(B)")
                if found is None and len(cex.prefix) <= max_prefix and len(cex.period) <= max_period:
                    problems.append(f"scan missed oracle counterexample {cex} inside its bounds")
        self.expect(not problems, f"subset nA={aA.n_states} nB={aB.n_states}: " + "; ".join(problems))
        if tr.enabled and verdict is not None:
            with tr.children(sid):
                self.replay_subset(tr, aA, tA, aB, tB, loop_budget)

    def replay_subset(self, tr, aA, tA, aB, tB, loop_budget) -> None:
        with tr.span("oracle.product"):
            prod = product(aA, aB)
        tr.add("oracle.product_states", prod.automaton.n_states)
        left, right = prod.left, prod.right
        with tr.span("loops.analyze"):
            analysis = analyze(prod.automaton)
        z = loop_counts(
            tr,
            prod.automaton,
            analysis,
            loop_budget,
            lambda z: frozenset(left[q] for q in z) in tA.entries
            and frozenset(right[q] for q in z) not in tB.entries,
        )
        if z is not None:
            with tr.span("oracle.loop_lasso"):
                w = loop_lasso(prod.automaton, z)
            with tr.span("automaton.accepts"):
                accepts_muller(aA, tA, w)
            with tr.span("automaton.accepts"):
                accepts_muller(aB, tB, w)
