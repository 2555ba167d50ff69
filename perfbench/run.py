#!/usr/bin/env python3
"""arrowlab benchmark: time to a verified result, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload small-dims --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload large-dims --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-references

A run is one process and a closed loop: one CLI invocation at a time, each
through ``arrowlab.cli.main`` with the argv a user would type plus
``--seed``.  Passes over the workload's invocations repeat until
``--seconds`` have elapsed; pass ``i`` gives the program ``--seed`` equal to
the workload seed plus ``i``.  Every invocation's output is checked
(checks.py).

Times are medians over the passes of a run, calibrated for the speed of
the machine.  On a small shared host the same pass slows by a third or more
for seconds to minutes at a time, often for most of a run, and a plain
median inherits that.  Fixed kernels of the benchmark's own (calibrate.py)
are timed right before and after each pass; their slowdown against their
reference times divides the pass's time.  ``wall_s`` is the median
calibrated pass.  Set-up, ``setup_s``, is the median of several fresh
processes, each calibrated by the kernels timed around it.  The times as
measured, ``wall_measured_s`` and ``setup_measured_s``, are printed and
stored beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes at the workload seed and reports the
per-layer metrics of tracer.py plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the metrics
BENCHMARK.json declares for the mode.  The full record, with every
per-experiment time, per-layer metric and the environment fingerprint, goes
to ``perfbench/results/``.
"""

import os

# Pin BLAS to one thread before anything imports numpy: this is the
# single-threaded baseline, and it keeps timings steady on a small machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# (per-experiment metric or None, argv).  Experiments too short to time
# apart are counted only in wall_s.
WORKLOADS = {
    # 2-4 dim matrices: per-call overhead, re-validation and serialization
    "small-dims": (
        ("balance_s", ("balance",)),
        ("schrodinger_s", ("schrodinger",)),
        ("crooks_s", ("crooks",)),
        ("jarzynski_s", ("jarzynski",)),
        ("heatflow_s", ("heatflow",)),
        (None, ("damping",)),
        ("sweep_s", ("sweep",)),
        (None, ("near-product",)),
        (None, ("decorrelate",)),
        (None, ("collide", "--mode", "reduced")),
    ),
    # the same functions on 256- and 512-dim matrices, where LAPACK and
    # einsum dominate.  Trial counts are cut from the CLI defaults so that a
    # pass takes about a second and a run holds dozens (see README.md).
    "large-dims": (
        ("balance_s", ("balance", "--dims", "16x16", "--trials", "10")),
        ("crooks_s", ("crooks", "--dims", "4x4", "--trials", "25")),
        ("collide_s", ("collide",)),
    ),
    # Nelder-Mead objective evaluations, reached by no other workload; the
    # near-product demo adds the feasible-bound invariant
    "optimizer": (
        ("search_s", ("search", "--trials", "2")),
        ("search_s", ("search", "--demo", "near-product", "--trials", "2")),
    ),
}

# calibrate.py kernels whose slowdown calibrates each workload's passes:
# small-matrix NumPy calls and a Nelder-Mead search where per-call overhead
# dominates, LAPACK where large eigendecompositions do.  Of the kernel
# mixes tried, these tracked each workload's own slowdown most closely.
CALIBRATION = {
    "small-dims": ("small_numpy", "nelder_mead"),
    "large-dims": ("lapack",),
    "optimizer": ("small_numpy", "nelder_mead"),
}
# set-up imports and validates the same code on every workload
SETUP_KERNELS = ("small_numpy", "nelder_mead")

SETUP_PROBES = 7
REFERENCE_SEEDS = range(5)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# program under test and environment
# ---------------------------------------------------------------------------


def load_cli():
    """Import arrowlab.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "arrowlab" / "__init__.py").is_file():
        raise BenchError(f"no arrowlab sources under {src}")
    sys.path.insert(0, str(src))
    from arrowlab import cli

    if Path(cli.__file__).resolve().parent != (src / "arrowlab").resolve():
        raise BenchError(f"imported arrowlab from {cli.__file__}, not from {src}")
    return cli


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    """``environment`` must match for two results to be compared."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "environment": {
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "commit": _git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# passes and their correctness
# ---------------------------------------------------------------------------


def run_pass(cli, workload: str, program_seed: int, tracer=None) -> dict:
    """One closed-loop pass; outputs are kept for checking after the clock stops."""
    invocations = []
    start = time.perf_counter()
    for metric, argv in WORKLOADS[workload]:
        argv = [*argv, "--seed", str(program_seed)]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.run_id += 1
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed invocation, not a failed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        invocations.append(
            {"argv": argv, "metric": metric, "seconds": time.perf_counter() - began, "code": code, "stdout": out.getvalue()}
        )
    return {"seed": program_seed, "wall_s": time.perf_counter() - start, "invocations": invocations}


class Tally:
    """Attempted and failed invocations, and how they compare with the references."""

    def __init__(self, references: dict[str, str]):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.identical = 0
        self.max_abs_diff = 0.0
        self.problems: list[str] = []

    def check(self, done: dict) -> None:
        for inv in done["invocations"]:
            key = checks.reference_key(inv["argv"])
            verdict = checks.check_invocation(inv.pop("code"), inv.pop("stdout"), self.references.get(key))
            self.attempted += 1
            self.failed += verdict.failed
            self.compared += verdict.compared
            self.identical += verdict.identical
            self.max_abs_diff = max(self.max_abs_diff, verdict.max_abs_diff)
            if verdict.failed and len(self.problems) < 20:
                self.problems.append(f"{key}: {'; '.join(verdict.problems)}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "compared_with_reference": self.compared,
            "byte_identical_share": self.identical / self.compared if self.compared else None,
            "max_abs_diff": self.max_abs_diff,
            "problems": self.problems,
        }


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _steady(values: list[float]) -> float:
    """A value every traced pass agrees on (a count) as it is, else the median."""
    return values[0] if values.count(values[0]) == len(values) else statistics.median(values)


def setup_seconds(workload: str) -> tuple[float, float]:
    """One fresh process: start, import arrowlab, validate the first config.

    Returns the time as measured and as calibrated.
    """
    argv = WORKLOADS[workload][0][1]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"), *argv, "--seed", "0"]
    before = calibrate.slowdown(SETUP_KERNELS)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    measured = float(proc.stdout.split()[-1]) - start
    return measured, measured / ((before + calibrate.slowdown(SETUP_KERNELS)) / 2)


def timed_run(cli, workload: str, seed: int, seconds: int) -> tuple[dict, dict, Tally]:
    tally = Tally(checks.load_references(workload))
    kernels = CALIBRATION[workload]
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # set-up probes are spread over the run, so that their median spans
        # the machine's slow and fast phases rather than a few seconds of it
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_seconds(workload))
        before = calibrate.slowdown(kernels)
        done = run_pass(cli, workload, seed + len(passes))
        done["slowdown"] = (before + calibrate.slowdown(kernels)) / 2
        tally.check(done)
        passes.append(done)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workload))
    experiments = {}
    for metric in dict.fromkeys(m for m, _ in WORKLOADS[workload] if m is not None):
        per_pass = [
            sum(i["seconds"] for i in p["invocations"] if i["metric"] == metric) / p["slowdown"] for p in passes
        ]
        experiments[metric] = (statistics.median(per_pass), "s")
    values = {
        "wall_s": (statistics.median(p["wall_s"] / p["slowdown"] for p in passes), "s"),
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "wall_measured_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_measured_s": (statistics.median(m for m, _ in setup), "s"),
        "slowdown": (statistics.median(p["slowdown"] for p in passes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        **experiments,
    }
    detail = {
        "calibration_kernels": list(kernels),
        "passes": [
            {
                "seed": p["seed"],
                "wall_measured_s": p["wall_s"],
                "slowdown": p["slowdown"],
                "invocation_s": [i["seconds"] for i in p["invocations"]],
            }
            for p in passes
        ],
        "pass_wall_s": _quartiles([p["wall_s"] / p["slowdown"] for p in passes]),
        "pass_wall_measured_s": _quartiles([p["wall_s"] for p in passes]),
        "setup_s": {**_quartiles([c for _, c in setup]), "samples": [c for _, c in setup]},
        "setup_measured_s": {**_quartiles([m for m, _ in setup]), "samples": [m for m, _ in setup]},
    }
    return values, detail, tally


def traced_run(cli, workload: str, seed: int, seconds: int) -> tuple[dict, dict, Tally]:
    from tracer import LAYER_METRICS, Tracer

    tracer = Tracer()
    tally = Tally(checks.load_references(workload))
    untraced, traced, per_pass = [], [], []  # passes without and with the tracer
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        done = run_pass(cli, workload, seed)
        tally.check(done)
        untraced.append(done)
        tracer.reset_counters()
        with tracer:
            done = run_pass(cli, workload, seed, tracer)
        tally.check(done)
        traced.append(done)
        per_pass.append((tracer.metrics(), tracer.counts(), tracer.layer_table()))
    values = {name: (_steady([m[name] for m, _, _ in per_pass]), unit) for name, unit in LAYER_METRICS.items()}
    values["trace_overhead"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced),
        "ratio",
    )
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload}-seed{seed}.npz"
    tracer.write_spans(spans_path)
    detail = {
        "untraced_wall_s": [p["wall_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "counts_repeat": all(c == per_pass[0][1] for _, c, _ in per_pass),
        "counts": per_pass[0][1],
        "layers": per_pass[0][2],
        "spans": {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.span_start)},
    }
    return values, detail, tally


# ---------------------------------------------------------------------------
# exact-count self-check and reference rows
# ---------------------------------------------------------------------------


def _large_eigs(counts: dict) -> int:
    from tracer import LARGE_DIM

    return sum(n for dim, n in counts["eig_dims"].items() if dim >= LARGE_DIM)


# argv (run at --seed 0) -> (what, measured from (metrics, counts), expected)
EXACT_COUNTS = (
    (
        ("balance", "--trials", "20"),
        (("eigendecompositions per 2x2 entropy_balance", lambda m, c: m["arrow.eigs_per_entropy_balance"], 15),),
    ),
    (
        ("balance", "--dims", "16x16", "--trials", "3"),
        (("eigendecompositions of dim >= 64 per 16x16 balance trial", lambda m, c: _large_eigs(c) / 3, 4),),
    ),
    (
        ("search",),
        (
            ("objective evaluations of search", lambda m, c: m["arrow.objective_evals"], 38410),
            ("nfev reported by minimize", lambda m, c: c["objective_nfev"], 38410),
            ("converged restarts of search", lambda m, c: c["optimizer_converged"], 0),
        ),
    ),
    (
        ("collide", "--collisions", "10"),
        (
            ("eigendecompositions of dim >= 64 in collide 10", lambda m, c: _large_eigs(c), 2),
            ("einsum calls in collide 10", lambda m, c: m["collisions.einsum_calls"], 130),
        ),
    ),
)


def self_check(cli) -> bool:
    """Trace each case twice: counts must repeat and match today's code."""
    from tracer import Tracer

    tracer = Tracer()
    ok = True
    for argv, expectations in EXACT_COUNTS:
        argv = [*argv, "--seed", "0"]
        seen = []
        for _ in range(2):
            tracer.reset_counters()
            out = io.StringIO()
            with tracer, contextlib.redirect_stdout(out):
                code = cli.main(argv)
            verdict = checks.check_invocation(code, out.getvalue(), None)
            if verdict.failed:
                print(f"FAIL {' '.join(argv)}: {'; '.join(verdict.problems)}")
                ok = False
            seen.append((tracer.metrics(), tracer.counts()))
        repeat = seen[0][1] == seen[1][1]
        ok &= repeat
        print(f"{'PASS' if repeat else 'FAIL'} {' '.join(argv)}: counts repeat across two traced runs")
        for what, measure, expected in expectations:
            got = measure(*seen[0])
            ok &= got == expected
            print(f"{'PASS' if got == expected else 'FAIL'} {what}: {got} (expected {expected})")
    return ok


def write_references(cli) -> None:
    for workload in WORKLOADS:
        rows = {}
        for seed in REFERENCE_SEEDS:
            for inv in run_pass(cli, workload, seed)["invocations"]:
                key = checks.reference_key(inv["argv"])
                verdict = checks.check_invocation(inv["code"], inv["stdout"], None)
                if verdict.failed:
                    raise BenchError(f"{key}: {'; '.join(verdict.problems)}")
                rows[key] = checks.split_output(inv["stdout"])[1]
        checks.save_references(workload, rows)
        print(f"wrote {len(rows)} reference outputs to {checks.reference_path(workload).relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--self-check", action="store_true", help="verify the tracer's exact counts")
    mode.add_argument("--write-references", action="store_true", help="rewrite reference rows for seeds 0-4")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (program seeds start here)")
    parser.add_argument("--seconds", type=int, default=40, help="measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    declared = _declared()
    cli = load_cli()
    if args.self_check:
        return 0 if self_check(cli) else 1
    if args.write_references:
        write_references(cli)
        return 0

    run = traced_run if args.trace else timed_run
    values, detail, tally = run(cli, args.workload, args.seed, args.seconds)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in declared[key]:
        value, unit = values[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"{spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    correctness = tally.summary()
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        "correctness": correctness,
        "detail": detail,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, (value, unit) in values.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {correctness['error_rate']!r} ({tally.failed}/{tally.attempted} invocations failed)")
    print(f"reference: {tally.compared} compared, byte-identical share {correctness['byte_identical_share']}")
    for problem in tally.problems:
        print(f"failure: {problem}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
