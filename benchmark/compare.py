#!/usr/bin/env python3
"""Calibration and commit comparison for the end-to-end benchmark (stdlib only).

  compare.py calibrate RESULT.json...
      Per (metric, workload): median, min, max, max/min spread and the
      interquartile range as a share of the median, against the bound in
      BENCHMARK.json. Suggests max(bound, 1.5 x max/min spread) as the new
      bound, and flags end-to-end metrics whose spread exceeds 25%.

  compare.py compare --parent RESULT.json... --change RESULT.json...
      Pairs runs of two commits by (workload, seed) and gives each
      (metric, workload) a verdict: improved, no worse, worse or unresolved.

  compare.py run --parent DIR --change DIR [--workload NAME]... [--pairs 10]
                 [--seed0 1000] [--seconds S]
      Runs benchmark/run.sh in two checkouts, alternating which side runs
      first in each pair, then compares as above.

The rule (choosing-metrics guide, section 8): a gain needs at least ten
pairs, the change winning at least nine tenths of them (ties count for
neither side), and medians further apart than the parent's interquartile
range. A metric is no worse when the change's median is not worse than the
parent's by more than the metric's bound; when the parent's own spread is
wider than the bound it is unresolved, unless every change run beats every
parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=None):
    path = path or os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer")
    return spec, metrics


def read_result(path):
    """(workload, seed, values, correct) of one results file; diagnostics
    appear among the values as info.<name>."""
    with open(path) as f:
        r = json.load(f)
    values = {k: v["value"] for k, v in r["result"]["metrics"].items()}
    for k, v in r.get("info", {}).items():
        values.setdefault("info." + k, v["value"])
    return r["workload"], r["seed"], values, r["result"]["correct"]


def load_results(paths):
    """{workload: [(seed, values, correct)]} from results files."""
    out = {}
    for p in paths:
        wl, seed, values, ok = read_result(p)
        out.setdefault(wl, []).append((seed, values, ok))
    return out


def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def calibrate(args):
    _, metrics = load_spec()
    results = load_results(args.files)
    print(f"{'workload':18} {'metric':28} {'n':>3} {'median':>12} {'min':>12} "
          f"{'max':>12} {'max/min':>8} {'iqr/med':>8} {'bound':>6} {'suggest':>7}")
    problems = []
    for wl in sorted(results):
        runs = results[wl]
        if not all(ok for _, _, ok in runs):
            problems.append(f"{wl}: a run failed its correctness gates")
        names = sorted({k for _, v, _ in runs for k in v})
        for name in names:
            vals = [v[name] for _, v, _ in runs if name in v]
            lo, hi = min(vals), max(vals)
            spread = hi / lo - 1 if lo > 0 else float("inf")
            iq = iqr_share(vals)
            m = metrics.get(name)
            bound = m.get("bound") if m else None
            bound_s = f"{bound:6.3f}" if bound is not None else "     -"
            suggest = f"{max(bound, 1.5 * spread):7.3f}" if bound is not None else "      -"
            print(f"{wl:18} {name:28} {len(vals):3d} {statistics.median(vals):12.6g} "
                  f"{lo:12.6g} {hi:12.6g} {spread:8.3f} {iq:8.3f} {bound_s} {suggest}")
            if m and m["kind"] == "end_to_end" and name != "setup_s":
                if spread > 0.25:
                    problems.append(f"{wl} {name}: max/min spread {spread:.3f} > 0.25; "
                                    "move it to the per-layer list")
                if iq > bound / 3:
                    problems.append(f"{wl} {name}: iqr/median {iq:.3f} above a third "
                                    f"of its bound {bound}")
    for p in problems:
        print("NOTE:", p)
    return 0


def verdict(parent, change, better, bound):
    """parent/change: value lists paired by index."""
    n = len(parent)
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    losses = sum(1 for p, c in zip(parent, change) if (c > p if lower else c < p))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr_p = 0.0
    if n >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        iqr_p = q3 - q1
    change_better = med_c < med_p if lower else med_c > med_p
    apart = abs(med_c - med_p) > iqr_p
    if n >= 10 and wins >= 0.9 * n and change_better and apart:
        return "improved", wins, med_p, med_c
    if bound is None:
        # No bound to be no worse than: only the mirror of a gain counts.
        if n >= 10 and losses >= 0.9 * n and not change_better and apart:
            return "worse", wins, med_p, med_c
        return "no claim", wins, med_p, med_c
    worse_by = ((med_c - med_p) if lower else (med_p - med_c)) / abs(med_p) if med_p else 0
    all_better = all((c < p if lower else c > p) for c in change for p in parent)
    if med_p and iqr_p / abs(med_p) > bound and not all_better:
        return "unresolved", wins, med_p, med_c
    return ("worse" if worse_by > bound else "no worse"), wins, med_p, med_c


def report(parent_runs, change_runs):
    _, metrics = load_spec()
    status = 0
    print(f"{'workload':18} {'metric':28} {'pairs':>5} {'wins':>4} {'parent':>12} "
          f"{'change':>12} {'verdict':>10}")
    for wl in sorted(set(parent_runs) & set(change_runs)):
        p_by_seed = {s: v for s, v, _ in parent_runs[wl]}
        c_by_seed = {s: v for s, v, _ in change_runs[wl]}
        seeds = sorted(set(p_by_seed) & set(c_by_seed))
        if not all(ok for _, _, ok in change_runs[wl]):
            print(f"{wl}: the change failed a correctness gate")
            status = 1
        for name, m in metrics.items():
            pairs = [(p_by_seed[s][name], c_by_seed[s][name]) for s in seeds
                     if name in p_by_seed[s] and name in c_by_seed[s]]
            if not pairs:
                continue
            p, c = [a for a, _ in pairs], [b for _, b in pairs]
            v, wins, med_p, med_c = verdict(p, c, m["better"], m.get("bound"))
            if v == "worse":
                status = 1
            print(f"{wl:18} {name:28} {len(pairs):5d} {wins:4d} {med_p:12.6g} "
                  f"{med_c:12.6g} {v:>10}")
    return status


def compare(args):
    return report(load_results(args.parent), load_results(args.change))


def run_side(checkout, workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    path = os.path.join(checkout, ".bench_build", "out", f"{workload}_seed{seed}.json")
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if not os.path.exists(path):
        return seed, {}, False
    _, _, values, ok = read_result(path)
    return seed, values, ok and proc.returncode == 0


def run(args):
    spec, _ = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": {}, "change": {}}
    for wl in workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                sides[side].setdefault(wl, []).append(
                    run_side(checkout, wl, seed, args.seconds))
                print(f"# {wl} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)
    return report(sides["parent"], sides["change"])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("calibrate")
    c.add_argument("files", nargs="+")
    c.set_defaults(fn=calibrate)
    c = sub.add_parser("compare")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    c.set_defaults(fn=compare)
    c = sub.add_parser("run")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", action="append")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1000)
    c.add_argument("--seconds", type=float)
    c.set_defaults(fn=run)
    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
