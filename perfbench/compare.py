"""Compare two results files: parent runs against change runs.

    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, the ratio of the medians (change over
parent), and a verdict:

- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- better: the change wins at least nine tenths of the pairs (runs with
  the same seed on both sides, ties counting for neither), at least ten
  pairs were run, and the medians differ by more than the distance
  between the parent's quartiles;
- unresolved: neither, and a side's quartile spread exceeds the bound,
  unless every change run reads better than every parent run;
- unchanged: otherwise.

Bounds come from BENCHMARK.json.  The figures not declared there (see
NOTES.md) take the bound of the declared one they follow: terms_per_s,
latency_p90_s and the unscaled latency_p50_wall_s take latency_p50_s's,
setup_wall_s takes setup_s's.  fail_ratio has bound 0.
"""

from __future__ import annotations

import json
import statistics

EXTRA = {"terms_per_s": ("higher", "latency_p50_s"),
         "latency_p90_s": ("lower", "latency_p50_s"),
         "setup_wall_s": ("lower", "setup_s"),
         "latency_p50_wall_s": ("lower", "latency_p50_s")}
ORDER = ("setup_s", "terms_per_s", "latency_p50_s", "latency_p90_s",
         "peak_rss_mib", "fail_ratio", "setup_wall_s", "latency_p50_wall_s")


def load(path: str) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} of untraced runs (the first per seed)."""
    out: dict[str, dict[int, dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                out.setdefault(rec["workload"], {}).setdefault(rec["seed"], rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pm == 0:
        return "worse" if sign * cm > 0 else "unchanged"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    wins = change_wins(pairs, better)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1):
        return "better"
    spread = max((p3 - p1) / pm, (c3 - c1) / cm if cm else 0.0)
    all_better = (max(sign * c for c in change) < min(sign * p for p in parent))
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def change_wins(pairs: list[tuple[float, float]], better: str) -> int:
    sign = 1 if better == "lower" else -1
    return sum(1 for p, c in pairs if sign * (c - p) < 0)


def main(parent_path: str, change_path: str, declaration: dict) -> int:
    declared = {m["name"]: (m["better"], m["bound"]) for m in declaration["end_to_end"]}
    rules = dict(declared)
    for name, (better, bound_of) in EXTRA.items():
        rules.setdefault(name, (better, declared[bound_of][1]))
    rules.setdefault("fail_ratio", ("lower", 0.0))
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<12} {'metric':<18} {'parent median [q1, q3] (n)':>36} "
          f"{'change median [q1, q3] (n)':>36} {'change/parent':>13} "
          f"{'wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        mismatched = [s for s in seeds
                      if p_runs[s]["inputs_sha256"] != c_runs[s]["inputs_sha256"]]
        if mismatched:
            print(f"{workload}: seeds {mismatched} ran on different inputs; "
                  "they are not paired")
        seeds = [s for s in seeds if s not in mismatched]
        for metric in ORDER:
            p_vals = [r["summary"][metric] for r in p_runs.values()
                      if metric in r["summary"]]
            c_vals = [r["summary"][metric] for r in c_runs.values()
                      if metric in r["summary"]]
            if not p_vals or not c_vals:
                continue
            pairs = [(p_runs[s]["summary"][metric], c_runs[s]["summary"][metric])
                     for s in seeds if metric in p_runs[s]["summary"]
                     and metric in c_runs[s]["summary"]]
            better, bound = rules[metric]
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            ratio = f"{cq[1] / pq[1]:.4f}" if pq[1] else "n/a"
            side = "{1:.6g} [{0:.6g}, {2:.6g}] ({3})"
            print(f"{workload:<12} {metric:<18} {side.format(*pq, len(p_vals)):>36} "
                  f"{side.format(*cq, len(c_vals)):>36} {ratio:>13} "
                  f"{change_wins(pairs, better):>3}/{len(pairs):<3}  "
                  f"{verdict(p_vals, c_vals, pairs, better, bound)}")
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads run on one side only: {', '.join(only)}")
    return 0
