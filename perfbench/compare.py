#!/usr/bin/env python3
"""Summarize or compare untraced benchmark results written by run.py.

    python3 perfbench/compare.py RESULTS_DIR
        Spread of every metric over the runs in the directory: median,
        quartiles and (q3 - q1) / median next to the metric's bound.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
        Runs paired by workload and seed.  A gain is claimed only when the
        change wins at least nine tenths of the pairs (ties count for
        neither side) and the medians differ by more than the parent's
        interquartile distance.  A declared end-to-end metric regresses when
        the change's median is worse than the parent's by more than its
        bound; it is unresolved when the parent's own spread exceeds the
        bound, unless every change run beats every parent run.

Results whose environment fingerprints differ are never compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: str) -> tuple[dict, dict]:
    """{(workload, seed): metric values} and {environment json: file names}."""
    runs, environments = {}, defaultdict(list)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        fp = record["fingerprint"]
        runs[(record["workload"], fp["workload_seed"])] = {k: m["value"] for k, m in record["metrics"].items()}
        environments[json.dumps(fp["environment"], sort_keys=True)].append(path.name)
    if not runs:
        raise SystemExit(f"no *-trace0.json results in {directory}")
    return runs, environments


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _by_workload(runs: dict) -> dict:
    grouped = defaultdict(dict)
    for (workload, seed), values in runs.items():
        grouped[workload][seed] = values
    return grouped


def spread(directory: str, declared: dict) -> None:
    runs, _ = _load(directory)
    for workload, by_seed in sorted(_by_workload(runs).items()):
        print(f"{workload} ({len(by_seed)} runs)")
        for metric in next(iter(by_seed.values())):
            values = [v[metric] for v in by_seed.values() if metric in v]
            q1, median, q3 = _stats(values)
            bound = declared.get(metric, {}).get("bound")
            note = "" if bound is None else f"  bound {bound}, steady below {bound / 3:.3f}"
            print(f"  {metric:16s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / median:.4f}{note}")


def compare(parent_dir: str, change_dir: str, declared: dict) -> int:
    parent, parent_env = _load(parent_dir)
    change, change_env = _load(change_dir)
    environments = set(parent_env) | set(change_env)
    if len(environments) != 1:
        print("refusing to compare: environment fingerprints differ", file=sys.stderr)
        for env in sorted(environments):
            print(f"  {env}: {(parent_env.get(env, []) + change_env.get(env, []))[:4]}", file=sys.stderr)
        return 1
    regressed = False
    for workload, parent_runs in sorted(_by_workload(parent).items()):
        change_runs = _by_workload(change).get(workload, {})
        seeds = sorted(set(parent_runs) & set(change_runs))
        if not seeds:
            continue
        print(f"{workload} ({len(seeds)} pairs)")
        for metric in parent_runs[seeds[0]]:
            if not all(metric in change_runs[s] for s in seeds):
                continue
            sign = -1.0 if declared.get(metric, {}).get("better") == "higher" else 1.0
            p = [sign * parent_runs[s][metric] for s in seeds]
            c = [sign * change_runs[s][metric] for s in seeds]
            wins = sum(cv < pv for cv, pv in zip(c, p))
            p_q1, p_med, p_q3 = _stats(p)
            _, c_med, _ = _stats(c)
            verdict = "gain" if wins >= 0.9 * len(seeds) and p_med - c_med > p_q3 - p_q1 else "no gain claimed"
            bound = declared.get(metric, {}).get("bound")
            if bound is not None:
                if abs(p_q3 - p_q1) > bound * abs(p_med) and not max(c) < min(p):
                    verdict += ", unresolved (parent spread above bound)"
                elif c_med - p_med > bound * abs(p_med):
                    verdict += ", REGRESSION"
                    regressed = True
                else:
                    verdict += ", no regression"
            print(
                f"  {metric:16s} parent {sign * p_med:.6g} [{sign * p_q1:.6g}, {sign * p_q3:.6g}]"
                f"  change {sign * c_med:.6g}  change won {wins}/{len(seeds)}  {verdict}"
            )
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if len(argv) == 1:
        spread(argv[0], declared)
        return 0
    if len(argv) == 2:
        return compare(argv[0], argv[1], declared)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
