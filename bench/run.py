"""Benchmark runner for omega-baire.

    python3 bench/run.py --workload cli-translate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory and the CLI runs as `python3 -m omega_baire` with that
directory on PYTHONPATH.  Every input is generated from `--seed`.

One process drives the load as a closed loop: a single caller, each step
starting when the previous one returned, CLI subprocesses one at a time.
With `--trace 0` the steps run without spans for `--seconds` and the
end-to-end metrics are reported.  With `--trace 1` a fixed round of steps
runs untraced, then again traced with the inner public calls replayed
(see tracer.py), until `--seconds` have passed; per-layer metrics are the
median over rounds, and the tracing overhead is the traced round's whole
wall time (steps, replays and span bookkeeping) minus the untraced round's.

Every output is checked against a reference computed by `reference.py`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name each metric
with its unit and record the seed, the machine and the versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = ("cli", "fileformat", "automaton", "loops", "baire", "to_buchi", "oracle")
SETUP_REPEATS = 7  # fresh interpreters timed for setup_s
CALIBRATION_REF_S = 0.0005  # reference time of calibration_kernel (see Calibration)


def load_params(spec: dict, workload: str, smoke: bool) -> dict:
    params = dict(spec["workloads"][workload])
    if smoke:
        params.update(params["smoke"])
    return params


def make_workload(name: str, params: dict, seed: int, workdir: Path):
    import workloads as W

    if name == "cli-translate":
        return W.CliTranslate(params, seed, workdir, SRC)
    if name == "construct-query":
        return W.ConstructQuery(params, seed, workdir)
    return W.VerifyMix(params, seed, workdir)


def run_step(wl, fn, tr) -> float | None:
    """One step; returns its latency, or None when it failed before its
    clock stopped.  An unexpected exception counts as a failed operation."""
    from workloads import Clock

    clock = Clock()
    try:
        fn(tr, clock)
    except Exception:
        wl.attempted += 1
        wl.failed += 1
        print("unexpected exception in a step:", file=sys.stderr)
        traceback.print_exc()
    return clock.elapsed


def nearest_rank(values: list[float], q: float) -> float:
    xs = sorted(values)
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def calibration_kernel() -> int:
    """A fixed slice of interpreter work (dict, set and integer operations,
    like the package's own inner loops); its time tracks the machine's
    current speed."""
    counts: dict[int, int] = {}
    seen = set()
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        seen.add(i * 7 % 1013)
    return len(seen)


class Calibration:
    """Interleaved timings of `calibration_kernel`.

    The machine is shared, and its speed moves by a third or more for
    seconds to minutes at a time: raw medians of one seed of verify-mix
    moved 18-24% between runs, and the median to-buchi time of ten
    cli-translate runs was 1.37 s in one set and 0.93 s in the next, while
    the ratio of a step's median to the interleaved kernel's median moved
    under 8%.  Times are therefore reported at the reference speed:
    multiplied by CALIBRATION_REF_S over the kernel's median time in the
    same pass.
    """

    def __init__(self):
        self.samples: list[float] = []

    def run_for(self, seconds: float) -> None:
        """Time the kernel at least once and for about `seconds`."""
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            calibration_kernel()
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                return

    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.samples)


def measure(wl, seconds: float) -> dict:
    """Closed loop over whole passes of the workload's steps until `seconds`
    have passed; a step's time is its median over passes.

    The calibration kernel runs after each step for a twentieth of the
    step's time, and times are reported at the reference speed (see
    Calibration); the unscaled figures are printed."""
    from tracer import Tracer

    steps = wl.steps()
    off = Tracer(False)
    times: list[list[float]] = [[] for _ in steps]
    raw: list[list[float]] = [[] for _ in steps]
    factors: list[float] = []
    start = time.perf_counter()
    while not factors or time.perf_counter() - start < seconds:
        cal = Calibration()
        this_pass = []
        for _, fn in steps:
            t = run_step(wl, fn, off)
            this_pass.append(t)
            cal.run_for(0.05 * (t or 0.0))
        factors.append(cal.factor())
        for i, t in enumerate(this_pass):
            if t is not None:
                times[i].append(t * factors[-1])
                raw[i].append(t)
    wall = time.perf_counter() - start
    wl.finish_rss()

    def by_kind(step_times):
        per_step = [(kind, statistics.median(xs)) for (kind, _), xs in zip(steps, step_times) if xs]
        return [t for kind, t in per_step if kind == "build"], [t for kind, t in per_step if kind == "query"]

    build, query = by_kind(times)
    raw_build, raw_query = by_kind(raw)
    done = build + query
    print(
        f"# {len(factors)} passes of {len(build)} build and {len(query)} query steps in {wall:.3f} s;"
        f" speed factors {min(factors):.4f}..{max(factors):.4f};"
        f" unscaled build_s {statistics.median(raw_build)} query_s {statistics.median(raw_query)}"
        f" steps_per_s {sum(map(len, times)) / wall}"
    )
    if len(steps) <= 10:
        print(f"# step times per pass {times}")
    return {
        "build_s": statistics.median(build),
        "build_rss_mb": statistics.median(wl.build_rss),
        "query_s": statistics.median(query),
        "query_rss_mb": statistics.median(wl.query_rss),
        "p90_s": nearest_rank(done, 0.9),
        "steps_per_s": len(done) / sum(done),
    }


def layer_metrics(tr, startup: float, overhead: float, untraced: float) -> dict:
    st = tr.self_times()
    v = tr.values

    def s(name):
        return st.get(name, (0.0, 0))[0]

    def calls(name):
        return st.get(name, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [x for name, x in st.items() if name.split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(x[0] for x in mine)
        m[f"{layer}.calls"] = sum(x[1] for x in mine)
    m["cli.startup_s"] = startup
    m["cli.unattributed_s"] = s("cli.to_buchi") + s("cli.member")
    m["fileformat.parse_s"] = s("fileformat.parse")
    m["fileformat.parse_mb_per_s"] = ratio(v["fileformat.parse_bytes"] / 1e6, s("fileformat.parse"))
    m["fileformat.serialize_s"] = s("fileformat.serialize")
    m["fileformat.serialize_mb_per_s"] = ratio(v["fileformat.out_bytes"] / 1e6, s("fileformat.serialize"))
    m["fileformat.out_bytes"] = v["fileformat.out_bytes"]
    m["loops.analyze_s"] = s("loops.analyze")
    m["loops.iter_loops_s"] = s("loops.iter_loops")
    m["loops.loops_found"] = v["loops.loops_found"]
    m["loops.subsets_examined"] = v["loops.subsets_examined"]
    m["loops.loop_yield"] = ratio(v["loops.loops_found"], v["loops.subsets_examined"])
    m["baire.open_witness_s"] = s("baire.open_witness")
    m["baire.weak_buchi_s"] = s("baire.weak_buchi")
    for size in ("small", "large"):
        t = s(f"to_buchi.translate.{size}")
        out = v[f"to_buchi.{size}.out_states"]
        m[f"to_buchi.{size}.translate_s"] = t
        m[f"to_buchi.{size}.ns_per_out_state"] = ratio(1e9 * t, out)
        m[f"to_buchi.{size}.us_per_in_state"] = ratio(1e6 * t, v[f"to_buchi.{size}.in_states"])
        m[f"to_buchi.{size}.kept_ratio"] = ratio(out, v[f"to_buchi.{size}.unpruned"])
    m["automaton.accepts_s"] = s("automaton.accepts")
    m["automaton.lassos_per_s"] = ratio(calls("automaton.accepts"), s("automaton.accepts"))
    m["oracle.product_s"] = s("oracle.product")
    m["oracle.product_states"] = v["oracle.product_states"]
    m["oracle.subset_s"] = s("oracle.subset")
    m["oracle.scan_s"] = s("oracle.scan")
    m["oracle.scan_lassos"] = v["oracle.scan_lassos"]
    m["oracle.equiv_s"] = s("oracle.equiv")
    m["oracle.verify_s"] = s("oracle.verify")
    m["oracle.sizeguard_count"] = v["oracle.sizeguard_count"]
    m["oracle.skipped_checks"] = v["oracle.skipped_checks"]
    m["trace.overhead_s"] = overhead
    m["trace.overhead_pct"] = ratio(100 * overhead, untraced)
    return m


def measure_traced(wl, seconds: float, round_steps: int) -> dict:
    from tracer import Tracer

    steps = wl.steps()[:round_steps]
    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for _, fn in steps:
            run_step(wl, fn, Tracer(False))
        t1 = time.perf_counter()
        tr = Tracer(True)
        for _, fn in steps:
            run_step(wl, fn, tr)
        untraced_s = t1 - t0
        overhead = time.perf_counter() - t1 - untraced_s
        startup = wl.startup_s() if hasattr(wl, "startup_s") else 0.0
        rounds.append(layer_metrics(tr, startup, overhead, untraced_s))
    print(f"# trace rounds: {len(rounds)} of {len(steps)} steps")
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


def time_setups(args) -> float:
    """Median wall time of fresh interpreters doing the whole set-up, so
    that imports (numpy among them) count every time; reported at the
    reference speed of the calibration kernel run between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    walls = []
    cal = Calibration()
    for _ in range(SETUP_REPEATS):
        cal.run_for(0.02)
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    cal.run_for(0.02)
    print(f"# setup walls {walls} s; speed factor {cal.factor():.4f}")
    return statistics.median(walls) * cal.factor()


def meta(args, schema: int) -> dict:
    import numpy

    return {
        "schema": schema,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    config, spec = _checkout()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    params = load_params(spec, args.workload, args.smoke)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            make_workload(args.workload, params, args.seed, workdir)
            return 0
        setup_s = time_setups(args)
        wl = make_workload(args.workload, params, args.seed, workdir)
        print("# meta " + json.dumps(meta(args, spec["schema"])))
        print("# inputs " + json.dumps(wl.describe()))
        if args.trace:
            metrics = measure_traced(wl, args.seconds, params["trace_round_steps"])
            declared = config["per_layer"]
        else:
            metrics = measure(wl, args.seconds)
            metrics["setup_s"] = setup_s
            declared = config["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if wl.attempted:
        print(f"# error_rate = {wl.failed / wl.attempted} ({wl.failed} of {wl.attempted} operations)")
    else:
        print("# no operation was checked; the run is not correct")
    result = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        result[name] = {"value": metrics[name], "unit": unit}
        print(f"# {name} = {metrics[name]} {unit}")
    print(json.dumps({
        "correct": wl.failed == 0 and wl.attempted > 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": result,
    }))
    return 0


def _checkout() -> tuple[dict, dict]:
    """Refuse to run outside a source checkout: the package and the
    benchmark declaration must both be there."""
    if not (SRC / "omega_baire" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC / 'omega_baire'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import omega_baire

    if Path(omega_baire.__file__).resolve().parent != (SRC / "omega_baire").resolve():
        sys.exit(f"imported omega_baire from {omega_baire.__file__}, not from {SRC}")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    return config, spec


if __name__ == "__main__":
    sys.exit(main())
