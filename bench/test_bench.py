"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from omega_baire import SubsetVerdict  # noqa: E402
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc.stdout)
    declared = CONFIG["per_layer"] if trace == "1" else CONFIG["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert "# meta " in proc.stdout


def flipped_lasso_verdict(monkeypatch):
    """The reference verdict of the first lasso is wrong."""
    honest = run.make_workload

    def make_wrong(*args):
        wl = honest(*args)
        holder = wl if hasattr(wl, "lassos") else wl.rungs[0]
        word, verdict = holder.lassos[0]
        holder.lassos[0] = (word, not verdict)
        return wl

    monkeypatch.setattr(run, "make_workload", make_wrong)


def off_by_one_bound(monkeypatch):
    honest = W.R.translation_bound
    monkeypatch.setattr(W.R, "translation_bound", lambda *args: honest(*args) + 1)


def inverted_muller_reference(monkeypatch):
    honest = W.muller_lasso
    monkeypatch.setattr(W, "muller_lasso", lambda *args: not honest(*args))


def scan_finds_nothing(monkeypatch):
    monkeypatch.setattr(W, "bounded_lasso_scan", lambda *args, **kwargs: None)


def oracle_always_holds(monkeypatch):
    monkeypatch.setattr(W, "language_subset_oracle", lambda *args, **kwargs: SubsetVerdict(True))


def run_main(capsys, workload: str) -> tuple[dict, str]:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--smoke"]) == 0
    out, err = capsys.readouterr()
    return result_line(out), err


@pytest.mark.parametrize(
    "workload, corrupt, message",
    [
        ("cli-translate", flipped_lasso_verdict, "mismatch: check member"),
        ("construct-query", flipped_lasso_verdict, "mismatch: rung"),
        ("verify-mix", off_by_one_bound, "mismatch: verify n="),
        ("verify-mix", inverted_muller_reference, "is not in L(A) minus L(B)"),
        ("verify-mix", scan_finds_nothing, "scan missed oracle counterexample"),
        ("verify-mix", oracle_always_holds, "oracle says inclusion holds, scan found a counterexample"),
    ],
)
def test_a_wrong_reference_or_output_raises_error_rate(workload, corrupt, message, monkeypatch, capsys):
    """Every check fails when one side of it is wrong: in verify-mix the
    report against the reference bound, the scan's and the oracle's lassos
    against the Muller reference, and the scan against the oracle."""
    corrupt(monkeypatch)
    result, err = run_main(capsys, workload)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert message in err


def test_a_run_that_checks_nothing_is_not_correct(monkeypatch, capsys):
    monkeypatch.setattr(W.Workload, "expect", lambda self, ok, what: None)
    result, _ = run_main(capsys, "construct-query")
    assert result["attempted"] == 0
    assert not result["correct"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
