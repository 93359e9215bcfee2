#!/usr/bin/env python3
"""Runs orion_bench sweeps and judges them against BENCHMARK.json.

Every metric's unit, direction ("better") and bound come from the
repository's BENCHMARK.json, so this script holds no per-metric settings.

    compare.py sweep LABEL [--seeds 1-10] [--trace 0|1] [--smoke]
        Runs orion_bench/run.py once per declared workload and seed, each
        for BENCHMARK.json's run_seconds, and stores each result line with
        its run length in .bench_runs/LABEL/<workload>/seed-<n>.json.

    compare.py compare BASE HEAD
        Median of HEAD against median of BASE for every end-to-end metric
        and workload, with the quartiles of both sides. "unresolved" when
        either side's spread (Q3 - Q1) / median exceeds the bound, unless
        every HEAD run reads better than every BASE run; otherwise
        "regressed" when HEAD is worse by more than the bound, else "ok".
        Every run on both sides must be correct with failed == 0, and all
        runs must have the same length. Exits 1 on any regression or
        failed run.

    compare.py check RESULT.json...
        Checks result files against the output contract: the declared
        metrics, units and names, and nothing else.

    compare.py baseline LABEL...
        Prints the medians of the pooled sweeps per workload and metric,
        with the git sha of the measured tree, as a baseline file.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def result_files(label):
    """{workload: [result dicts]} for one sweep label."""
    base = os.path.join(RUNS, label)
    out = {}
    for workload in sorted(os.listdir(base)):
        runs = []
        for name in sorted(os.listdir(os.path.join(base, workload))):
            with open(os.path.join(base, workload, name)) as f:
                runs.append(json.load(f))
        out[workload] = runs
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def values_of(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def failed_runs(runs):
    return [r["seed"] for r in runs
            if not r["result"]["correct"] or r["result"]["failed"] != 0]


def run_seconds_of(sweeps):
    """The one run length of untraced, unsmoked runs, or None."""
    shapes = {(r["seconds"], r["smoke"], r["trace"])
              for files in sweeps for runs in files.values() for r in runs}
    if len(shapes) == 1 and next(iter(shapes))[1:] == (False, 0):
        return next(iter(shapes))[0]
    print(f"need untraced, non-smoke runs of one length; found (seconds, "
          f"smoke, trace) = {sorted(shapes)}")
    return None


def cmd_sweep(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    for workload in [w["name"] for w in spec["workloads"]]:
        out_dir = os.path.join(RUNS, args.label, workload)
        os.makedirs(out_dir, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, f"seed-{seed}.json"), "w") as f:
                json.dump({"workload": workload, "seed": seed,
                           "seconds": seconds, "smoke": args.smoke,
                           "trace": args.trace,
                           "result": json.loads(lines[-1])}, f)
            print(f"{workload} seed {seed}: {lines[-1][:100]}...")
    return 0


def cmd_compare(args):
    spec = load_spec()
    base, head = result_files(args.base), result_files(args.head)
    if run_seconds_of([base, head]) is None:
        return 1
    ok = True
    print(f"{'workload':18s} {'metric':16s} "
          f"{'base median [q1, q3]':>32s} {'head median [q1, q3]':>32s} "
          f"{'change':>7s} {'bound':>5s}  verdict")
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"{workload}: missing on one side")
            ok = False
            continue
        for side, runs in (("base", base[workload]), ("head", head[workload])):
            bad = failed_runs(runs)
            if bad:
                print(f"{workload}: {side} failed at seeds {bad}")
                ok = False
        for m in spec["end_to_end"]:
            b = values_of(base[workload], m["name"])
            h = values_of(head[workload], m["name"])
            bm, hm = statistics.median(b), statistics.median(h)
            change = (hm - bm) / abs(bm) if bm else float("inf")
            lower = m["better"] == "lower"
            worse = change if lower else -change
            # A side this noisy cannot show a change of the bound's size
            # either way, so noise is never reported as a regression.
            if max(spread(b), spread(h)) > m["bound"]:
                all_better = max(h) < min(b) if lower else min(h) > max(b)
                verdict = "ok" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
                ok = False
            else:
                verdict = "ok"
            print(f"{workload:18s} {m['name']:16s} {describe(b):>32s} "
                  f"{describe(h):>32s} {change:+7.3f} {m['bound']:5.2f}  "
                  f"{verdict}")
    return 0 if ok else 1


def cmd_check(args):
    spec = load_spec()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for path in args.results:
        with open(path) as f:
            doc = json.load(f)
        res = doc["result"]
        problems = []
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"keys {sorted(res)}")
        want = declared[doc["trace"]]
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        problems += [f"bad name {k}" for k in got if not NAME_RE.match(k)]
        if res["attempted"] < 1 or not res["correct"] or res["failed"]:
            problems.append("no successful run")
        print(f"{path}: {'ok' if not problems else '; '.join(problems)}")
        ok = ok and not problems
    return 0 if ok else 1


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_baseline(args):
    spec = load_spec()

    def medians(runs):
        return {m["name"]: statistics.median(values_of(runs, m["name"]))
                for m in spec["end_to_end"]}

    sweeps = {label: result_files(label) for label in args.labels}
    seconds = run_seconds_of(sweeps.values())
    if seconds is None:
        return 1
    doc = {"git_sha": git_sha(), "run_seconds": seconds, "workloads": {}}
    for workload in sorted(set().union(*sweeps.values())):
        by_sweep = {label: files[workload] for label, files in sweeps.items()
                    if workload in files}
        pooled = [r for runs in by_sweep.values() for r in runs]
        doc["workloads"][workload] = {
            "runs": len(pooled),
            "failed_runs": len(failed_runs(pooled)),
            "median": medians(pooled),
            "median_by_sweep": {label: medians(runs)
                                for label, runs in by_sweep.items()},
        }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("label")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("head")
    p = sub.add_parser("check")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("baseline")
    p.add_argument("labels", nargs="+")
    args = ap.parse_args()
    return {"sweep": cmd_sweep, "compare": cmd_compare, "check": cmd_check,
            "baseline": cmd_baseline}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
