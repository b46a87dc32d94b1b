import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import omega_baire
from omega_baire import (
    BuchiSet,
    DetAutomaton,
    FormatError,
    MullerTable,
    muller_to_buchi_maximal,
    parse_automaton,
    serialize_automaton,
)
from omega_baire.cli import run as cli_run
from omega_baire.fileformat import read_automaton
from omega_baire import to_buchi
from omega_baire.to_buchi import VECTORIZE_THRESHOLD, buchi_state_bound

from conftest import chain_plus_random

EX1_TEXT = """\
alphabet a b
states 2
initial 0
acc-type muller
trans 0 a 0
trans 0 b 1
trans 1 a 0
trans 1 b 1
accept {0}
"""

EX2_TEXT = """\
alphabet a b
states 3
initial 0
acc-type muller
trans 0 a 1
trans 0 b 2
trans 1 a 1
trans 1 b 1
trans 2 a 2
trans 2 b 2
accept {1}
"""

EX3_TEXT = """\
alphabet a b
states 2
initial 0
acc-type muller
trans 0 a 1
trans 0 b 0
trans 1 a 0
trans 1 b 1
accept {0,1}
"""


@pytest.fixture
def ex1_file(tmp_path):
    p = tmp_path / "ex1.aut"
    p.write_text(EX1_TEXT)
    return p


@pytest.fixture
def ex2_file(tmp_path):
    p = tmp_path / "ex2.aut"
    p.write_text(EX2_TEXT)
    return p


@pytest.fixture
def ex3_file(tmp_path):
    p = tmp_path / "ex3.aut"
    p.write_text(EX3_TEXT)
    return p


class TestAnalyze:
    def test_ex2_report(self, ex2_file, capsys):
        assert cli_run(["analyze", str(ex2_file)]) == 0
        out = capsys.readouterr().out
        assert "scc 0: {0}" in out
        assert "scc 1: {1} terminal" in out
        assert "scc 2: {2} terminal" in out
        assert "entry {1}: loop=yes scc=yes terminal=yes" in out

    def test_enumerate_loops(self, ex1_file, capsys):
        assert cli_run(["analyze", str(ex1_file), "--enumerate-loops"]) == 0
        out = capsys.readouterr().out
        assert "loops (3): {0} {1} {0,1}" in out

    def test_enumerate_loops_over_budget_exit_3(self, tmp_path, capsys):
        # One 15,000-state cycle: 2^15000 subsets, a count of 4516 digits.
        n = 15000
        a = DetAutomaton(("a",), n, 0, [(s + 1) % n for s in range(n)])
        path = tmp_path / "big.aut"
        path.write_text(serialize_automaton(a, MullerTable.of()))
        assert cli_run(["analyze", str(path), "--enumerate-loops"]) == 3
        err = capsys.readouterr().err
        assert err == "loop enumeration needs more than 1048576 subset checks\n"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.aut"
        bad.write_text(EX1_TEXT.replace("trans 1 b 1\n", ""))
        assert cli_run(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert cli_run(["analyze", str(tmp_path / "nope.aut")]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        """A byte that is not UTF-8, here in an origin comment past the
        first read block, is one diagnostic line naming its line, as from
        `parse_automaton`, and exit 2."""
        n = 3 * 2048
        a = DetAutomaton(("a", "b"), n, 0, [t for s in range(n) for t in ((s + 1) % n, s)])
        lines = serialize_automaton(a, BuchiSet.of(0), {s: s for s in range(n)}).encode().split(b"\n")
        lines[-3] = lines[-3].replace(b"from", b"fr\xffom")
        data = b"\n".join(lines)
        bad = tmp_path / "bad.aut"
        bad.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            parse_automaton(data)
        assert str(exc.value) == f"line {len(lines) - 2}: invalid UTF-8 (byte 0xff: invalid start byte)"
        assert cli_run(["check", "member", str(bad), "--word", ":a"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{exc.value}\n")

    def test_budget_exit_3(self, ex1_file):
        assert cli_run(["analyze", str(ex1_file), "--enumerate-loops", "--loop-budget", "1"]) == 3

    def test_dot_export(self, ex2_file, tmp_path, capsys):
        dot = tmp_path / "c.dot"
        assert cli_run(["analyze", str(ex2_file), "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "n0 -> n1" in text


class TestBaire:
    def test_writes_parseable_files(self, ex2_file, tmp_path, capsys):
        out_open = tmp_path / "open.aut"
        out_meagre = tmp_path / "meagre.aut"
        code = cli_run(
            [
                "baire",
                str(ex2_file),
                "--out-open",
                str(out_open),
                "--out-meagre-complement",
                str(out_meagre),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E nonempty: true" in out
        assert "complement" in out
        a1, t1 = parse_automaton(out_open.read_text())
        assert isinstance(t1, MullerTable) and len(t1.entries) == 1
        a2, t2 = parse_automaton(out_meagre.read_text())
        assert t2.entries == frozenset({frozenset({1}), frozenset({2})})

    def test_empty_open_language(self, ex1_file, tmp_path, capsys):
        code = cli_run(
            [
                "baire",
                str(ex1_file),
                "--out-open",
                str(tmp_path / "o.aut"),
                "--out-meagre-complement",
                str(tmp_path / "m.aut"),
            ]
        )
        assert code == 0
        assert "E nonempty: false" in capsys.readouterr().out

    def test_buchi_outputs(self, ex1_file, tmp_path, capsys):
        code = cli_run(
            [
                "baire",
                str(ex1_file),
                "--out-open",
                str(tmp_path / "o.aut"),
                "--out-meagre-complement",
                str(tmp_path / "m.aut"),
                "--buchi",
            ]
        )
        assert code == 0
        b1, acc1 = parse_automaton((tmp_path / "o.aut.buchi").read_text())
        assert isinstance(acc1, BuchiSet)
        assert acc1.accepting == frozenset()
        b2, acc2 = parse_automaton((tmp_path / "m.aut.buchi").read_text())
        assert isinstance(acc2, BuchiSet)

    def test_buchi_on_ex3_states(self, ex3_file, tmp_path, capsys):
        code = cli_run(
            [
                "baire",
                str(ex3_file),
                "--out-open",
                str(tmp_path / "o.aut"),
                "--out-meagre-complement",
                str(tmp_path / "m.aut"),
                "--buchi",
                "--no-prune",
            ]
        )
        assert code == 0
        assert "unpruned 6" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [["--no-prune"], ["--out-buchi-open", "b.aut"], ["--out-buchi-meagre-complement", "b.aut"]],
        ids=" ".join,
    )
    def test_buchi_option_without_buchi_is_usage_error(self, ex1_file, tmp_path, capsys, extra):
        """Without --buchi no Buchi form is built: an option for one is
        rejected, not ignored, and nothing is written."""
        argv = ["baire", str(ex1_file), "--out-open", "o.aut", "--out-meagre-complement", "m.aut"]
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path)
            with pytest.raises(SystemExit) as exc:
                cli_run(argv + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need --buchi" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.aut"]

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--out-open", "w.aut", "--out-meagre-complement", "w.aut"],
            ["--out-open", "w.aut", "--out-meagre-complement", "./w.aut"],
            ["--out-open", "w.aut", "--out-meagre-complement", "m.aut", "--buchi",
             "--out-buchi-open", "m.aut"],
            ["--out-open", "w.aut", "--out-meagre-complement", "w.aut.buchi", "--buchi"],
        ],
        ids=" ".join,
    )
    def test_two_outputs_naming_one_file_is_usage_error(self, ex1_file, tmp_path, capsys, outputs):
        """One output would overwrite another (the meagre complement over
        the open witness, say): a usage error, and nothing is written."""
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path)
            with pytest.raises(SystemExit) as exc:
                cli_run(["baire", str(ex1_file), *outputs])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "name the same file" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.aut"]


class TestToBuchi:
    def test_ex3_no_prune_six_states(self, ex3_file, tmp_path, capsys):
        out = tmp_path / "b.aut"
        assert cli_run(["to-buchi", str(ex3_file), "--out", str(out), "--no-prune"]) == 0
        b, acc = parse_automaton(out.read_text())
        assert b.n_states == 6
        assert isinstance(acc, BuchiSet)
        assert "layered" in out.read_text()

    def test_non_maximal_exit_4(self, ex1_file, tmp_path, capsys):
        code = cli_run(["to-buchi", str(ex1_file), "--out", str(tmp_path / "b.aut")])
        assert code == 4
        assert "{0}" in capsys.readouterr().err

    def test_buchi_input_exit_4(self, tmp_path):
        src = tmp_path / "b-in.aut"
        src.write_text(
            EX1_TEXT.replace("acc-type muller", "acc-type buchi").replace(
                "accept {0}", "accept 0"
            )
        )
        assert cli_run(["to-buchi", str(src), "--out", str(tmp_path / "o.aut")]) == 4
        assert (
            cli_run(
                [
                    "baire",
                    str(src),
                    "--out-open",
                    str(tmp_path / "e.aut"),
                    "--out-meagre-complement",
                    str(tmp_path / "m.aut"),
                ]
            )
            == 4
        )

    def test_dropped_entries_reported_on_stderr(self, tmp_path, capsys):
        src = tmp_path / "d.aut"
        src.write_text(EX2_TEXT.replace("accept {1}", "accept {1} {0}"))
        out = tmp_path / "b.aut"
        assert cli_run(["to-buchi", str(src), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "dropped non-loop entries: {0}\n"
        assert captured.out.startswith("buchi automaton: ")

    def test_oversized_translation_exit_3(self, ex3_file, tmp_path, capsys, monkeypatch):
        # ex3's translation has 2 + 2^2 states of 2 cells: 12 cells.
        monkeypatch.setattr(to_buchi, "MAX_TRANSLATION_CELLS", 11)
        out = tmp_path / "b.aut"
        assert cli_run(["to-buchi", str(ex3_file), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "translation needs 12 cells (6 states), limit is 11\n"
        assert captured.out == ""
        assert not out.exists()
        outs = [str(tmp_path / name) for name in ("e.aut", "m.aut")]
        argv = ["baire", str(ex3_file), "--out-open", outs[0], "--out-meagre-complement", outs[1]]
        assert cli_run(argv + ["--buchi"]) == 3
        assert not any(map(os.path.exists, outs))
        monkeypatch.setattr(to_buchi, "MAX_TRANSLATION_CELLS", 12)
        assert cli_run(["to-buchi", str(ex3_file), "--out", str(out)]) == 0

    def test_whole_scc_cycle_exit_3(self, tmp_path, capsys):
        # A one-letter 30,000-cycle whose table is the cycle: its 9e8-cell
        # translation is refused, after a loop test linear in the cycle.
        k = 30000
        a = DetAutomaton(alphabet=("a",), n_states=k, initial=0, delta=[(s + 1) % k for s in range(k)])
        src = tmp_path / "cycle.aut"
        src.write_text(serialize_automaton(a, MullerTable.of(range(k))))
        out = tmp_path / "b.aut"
        assert cli_run(["to-buchi", str(src), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"translation needs {k + k * k} cells ({k + k * k} states),"
            f" limit is {to_buchi.MAX_TRANSLATION_CELLS}\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_empty_table_copy(self, tmp_path, capsys):
        src = tmp_path / "e.aut"
        src.write_text(EX1_TEXT.replace("accept {0}\n", ""))
        out = tmp_path / "b.aut"
        assert cli_run(["to-buchi", str(src), "--out", str(out)]) == 0
        b, acc = parse_automaton(out.read_text())
        assert b.n_states == 2
        assert acc.accepting == frozenset()


class TestCheck:
    def test_member_true(self, ex1_file, capsys):
        assert cli_run(["check", "member", str(ex1_file), "--word", ":a"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_member_false(self, ex1_file, capsys):
        assert cli_run(["check", "member", str(ex1_file), "--word", "a:b"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_member_empty_period_exit_2(self, ex1_file):
        assert cli_run(["check", "member", str(ex1_file), "--word", "a:"]) == 2

    def test_member_unknown_symbol_exit_2(self, ex1_file):
        assert cli_run(["check", "member", str(ex1_file), "--word", ":c"]) == 2

    def test_subset_true(self, ex2_file, tmp_path, capsys):
        other = tmp_path / "b.aut"
        other.write_text(
            EX2_TEXT.replace("acc-type muller", "acc-type buchi").replace(
                "accept {1}", "accept 1"
            )
        )
        assert cli_run(["check", "subset", str(ex2_file), str(other)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_subset_false_with_witness(self, ex1_file, tmp_path, capsys):
        bigger = tmp_path / "big.aut"
        bigger.write_text(EX1_TEXT.replace("accept {0}", "accept {0,1}"))
        assert cli_run(["check", "subset", str(bigger), str(ex1_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "false"
        assert out[1].startswith("witness ")
        assert ":" in out[1]

    def test_alphabet_mismatch_exit_5(self, ex1_file, tmp_path):
        other = tmp_path / "c.aut"
        other.write_text(
            "alphabet a c\nstates 1\ninitial 0\nacc-type muller\n"
            "trans 0 a 0\ntrans 0 c 0\naccept {0}\n"
        )
        assert cli_run(["check", "subset", str(ex1_file), str(other)]) == 5


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code = cli_run(["selftest", "--states", "5", "--trials", "25", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selftest trials=25 failures=0" in out

    def test_reports_byte_identical(self, capsys):
        cli_run(["selftest", "--states", "4", "--trials", "10", "--seed", "3"])
        first = capsys.readouterr().out
        cli_run(["selftest", "--states", "4", "--trials", "10", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_timing_goes_to_stderr(self, capsys):
        cli_run(["selftest", "--states", "3", "--trials", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert "timing" in captured.err
        assert "timing" not in captured.out

    def test_timing_p90_is_the_nearest_rank(self, capsys, monkeypatch):
        # Trials timed 1..10 ms: the nearest-rank p90 of ten is the ninth.
        clock = iter(t for k in range(1, 11) for t in (0.0, k / 1000))
        monkeypatch.setattr(
            "omega_baire.cli.time", types.SimpleNamespace(perf_counter=lambda: next(clock))
        )
        cli_run(["selftest", "--states", "3", "--trials", "10", "--seed", "1"])
        assert "p50=5.50 p90=9.00 max=10.00" in capsys.readouterr().err

    def test_lasso_bound_past_the_scan_budget_skips(self, capsys):
        # The scan's step count at period 20000 has thousands of digits.
        code = cli_run(["selftest", "--trials", "1", "--seed", "1", "--lasso-bound", "20000"])
        assert code == 0
        assert " skipped=" in capsys.readouterr().out

    def test_one_letter_long_lasso_bound_passes(self, capsys):
        # Over one letter the period walk is a chain as deep as the bound.
        code = cli_run(["selftest", "--trials", "2", "--seed", "1", "--alphabet", "1",
                        "--lasso-bound", "2000"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "selftest trials=2 failures=0"

    def test_large_states_completes_with_skipped_oracles(self, capsys):
        # constructions run at any size; exhaustive checks skip over budget
        code = cli_run(["selftest", "--states", "600", "--trials", "2", "--seed", "5"])
        assert code == 0
        assert "failures=0" in capsys.readouterr().out

    def test_skipped_checks_are_counted(self, capsys):
        # A zero product budget skips the four budgeted product checks on
        # every trial (b1-language's diagonal product is always in budget);
        # the report says so instead of a bare "pass".
        code = cli_run(["selftest", "--trials", "3", "--product-budget", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith(" pass skipped=4") for line in lines[:3])
        assert lines[3] == "selftest trials=3 failures=0 skipped=12"

    @pytest.mark.parametrize("states", ["40", "80"])
    def test_passing_trials_skip_no_loop_check(self, capsys, states):
        # The loop budget charges only the product SCCs the refinement
        # expands, one each, so on these passing trials nothing skips.
        code = cli_run(["selftest", "--trials", "20", "--seed", "1", "--states", states])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped=" not in out
        assert out.splitlines()[-1] == "selftest trials=20 failures=0"

    def test_no_skip_count_without_skips(self, capsys):
        cli_run(["selftest", "--states", "5", "--trials", "5", "--seed", "7"])
        out = capsys.readouterr().out
        assert "skipped" not in out
        assert out.splitlines()[-1] == "selftest trials=5 failures=0"


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--states", "1"],
        ["selftest", "--states", "0"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "-3"],
        ["selftest", "--alphabet", "0"],
        ["selftest", "--entries", "-1"],
        ["selftest", "--lasso-bound", "0"],
        ["selftest", "--loop-budget", "-1"],
        ["selftest", "--product-budget", "-1"],
        ["analyze", "x.aut", "--loop-budget", "-1"],
        ["check", "subset", "x.aut", "y.aut", "--product-budget", "-1"],
        ["check", "subset", "x.aut", "y.aut", "--loop-budget", "-1"],
    ],
    ids=" ".join,
)
def test_out_of_range_argument_is_usage_error(argv, capsys):
    # Rejected by argparse before any file is read or trial run.
    with pytest.raises(SystemExit) as exc:
        cli_run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--trials", "٢"],  # an Arabic-Indic digit two
        ["selftest", "--states", "1_0"],
        ["selftest", "--seed", " 1"],
        ["selftest", "--seed", "+1"],
        ["selftest", "--seed", "1.0"],
        ["selftest", "--lasso-bound", "8 "],
        ["analyze", "x.aut", "--loop-budget", "0x10"],
        ["check", "subset", "x.aut", "y.aut", "--product-budget", "1e3"],
    ],
    ids=repr,
)
def test_integer_option_written_otherwise_than_in_a_file_is_usage_error(argv, capsys):
    # An integer option takes what the file parser takes: ASCII digits with
    # an optional leading '-'.  Anything else is rejected before any file is
    # read or trial run, where `int` would have read it as some number.
    with pytest.raises(SystemExit) as exc:
        cli_run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be an integer, got {argv[-1]!r}" in captured.err


def test_negative_seed_still_accepted(capsys):
    assert cli_run(["selftest", "--trials", "1", "--states", "3", "--seed", "-7"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "selftest trials=1 failures=0"


def _run_script(script: str, *args: str, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this checkout;
    `preexec_fn` runs in the child before it starts."""
    package_root = str(Path(omega_baire.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
    )


def test_check_member_does_not_import_numpy(tmp_path):
    """Reading a file and checking a lasso needs no numpy, even for a table
    of 2^16 cells."""
    n = 1 << 15
    a = DetAutomaton(
        alphabet=("a", "b"),
        n_states=n,
        initial=0,
        delta=[t for s in range(n) for t in ((s + 1) % n, 0)],
    )
    path = tmp_path / "big.aut"
    path.write_text(serialize_automaton(a, BuchiSet.of(1)))
    script = (
        "import sys\n"
        "from omega_baire.cli import run\n"
        "codes = [run(['check', 'member', sys.argv[1], '--word', w]) for w in (':a', 'a:b')]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    done = _run_script(script, str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "true\nfalse\n[0, 0] False\n"


def test_loading_a_file_holds_the_table_not_the_text(tmp_path):
    """`read_automaton`, which the CLI loads files with, streams a file,
    also one that is not canonical: its traced peak is the table's 4 bytes
    a cell plus a working set of about one block, which stays under the
    size of this 39,486-state file with layered origin comments.  The
    file as written, with one space more in its first `trans` line, and
    with CRLF line ends."""
    n = 200
    tr = muller_to_buchi_maximal(chain_plus_random(n), MullerTable.of(range(n)))
    text = serialize_automaton(tr.automaton, tr.accepting, tr.origin)
    bound = 4 * len(tr.automaton.delta) + (7 << 18)
    edits = {
        "canonical": text,
        "one space more": text.replace("\ntrans 0 a ", "\ntrans 0 a  ", 1),
        "crlf": text.replace("\n", "\r\n"),
    }
    for name, edited in edits.items():
        path = tmp_path / "big.aut"
        path.write_bytes(edited.encode())
        assert tr.automaton.n_states >= 20000 and bound < path.stat().st_size
        tracemalloc.start()
        try:
            loaded = read_automaton(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == (tr.automaton, tr.accepting), name
        assert peak < bound, name


def test_to_buchi_below_the_kernel_threshold_does_not_import_numpy(tmp_path):
    """A translation just below `VECTORIZE_THRESHOLD` cells runs the
    pure-Python kernel, so the CLI does not pay numpy's import."""
    n = 180
    a = chain_plus_random(n)
    t = MullerTable.of(range(n))
    assert buchi_state_bound(a, t) * 2 < VECTORIZE_THRESHOLD
    src = tmp_path / "in.aut"
    src.write_text(serialize_automaton(a, t))
    out = tmp_path / "out.aut"
    script = (
        "import sys\n"
        "from omega_baire.cli import run\n"
        "code = run(['to-buchi', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    done = _run_script(script, str(src), str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    assert parse_automaton(out.read_text())[0].n_states == 31572


def test_internal_error_exit_6(ex1_file, tmp_path):
    """A failed self-check (here: a counterexample that direct acceptance
    does not confirm) is one diagnostic line and exit 6, not a traceback."""
    bigger = tmp_path / "big.aut"
    bigger.write_text(EX1_TEXT.replace("accept {0}", "accept {0,1}"))
    script = (
        "import sys\n"
        "import omega_baire.oracle as oracle\n"
        "from omega_baire.cli import run\n"
        "oracle.accepts = lambda a, acc, w: True\n"
        "sys.exit(run(['check', 'subset', sys.argv[1], sys.argv[2]]))\n"
    )
    done = _run_script(script, str(bigger), str(ex1_file))
    assert done.returncode == 6
    assert done.stdout == ""
    assert done.stderr == "internal error: oracle witness failed direct verification\n"


def test_out_of_memory_exit_3(tmp_path):
    """Running out of memory is one diagnostic line and exit 3, not a
    traceback.  The translation of a one-letter 9000-cycle allocates a
    309 MiB array; the child's address space is capped at 500 MiB, and the
    cap is set in the child only."""
    resource = pytest.importorskip("resource")
    n = 9000
    a = DetAutomaton(("a",), n, 0, tuple((s + 1) % n for s in range(n)))
    src = tmp_path / "cycle.aut"
    src.write_text(serialize_automaton(a, MullerTable.of(range(n))))
    out = tmp_path / "out.aut"

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (500 << 20, 500 << 20))

    script = "from omega_baire.cli import main\nmain()\n"
    done = _run_script(script, "to-buchi", str(src), "--out", str(out), preexec_fn=cap_address_space)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("out of memory") and done.stderr.count("\n") == 1
    assert done.stdout == "" and not out.exists()


class TestRoundTripOfWrittenFiles:
    def test_all_written_files_reparse(self, ex2_file, tmp_path):
        cli_run(
            [
                "baire",
                str(ex2_file),
                "--out-open",
                str(tmp_path / "o.aut"),
                "--out-meagre-complement",
                str(tmp_path / "m.aut"),
                "--buchi",
            ]
        )
        from omega_baire import serialize_automaton

        for name in ("o.aut", "m.aut", "o.aut.buchi", "m.aut.buchi"):
            text = (tmp_path / name).read_text()
            a, acc = parse_automaton(text)
            again = serialize_automaton(a, acc)
            b, acc2 = parse_automaton(again)
            assert (b, acc2) == (a, acc)
