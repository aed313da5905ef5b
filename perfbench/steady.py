#!/usr/bin/env python3
"""Steadiness tooling for the benchmark.

Run one workload N times, each with another seed, and save the set:

    python3 perfbench/steady.py run --workload uw-stream --runs 10 \\
        --first-seed 1 --out .bench_build/sets/uw-a.json

Print a saved set's per-metric median, quartiles and spread (Q3 - Q1 as a
share of the median, from statistics.quantiles(values, n=4)), checking each
spread against a third of the metric's bound in BENCHMARK.json:

    python3 perfbench/steady.py show .bench_build/sets/uw-a.json

Compare two sets of the same workload against the bounds: every spread
(setup_s's too) within its bound, the second median no worse than the
first by more than the bound, and the same share of failed operations:

    python3 perfbench/steady.py compare A.json B.json

`show` and `compare` exit 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_set(args):
    spec, _ = end_to_end()
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"steady.py: seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"workload": args.workload, "runs": results}, f, indent=1)
    return show_set(load(args.out))


def load(path):
    with open(path) as f:
        return json.load(f)


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted, attempted


def show_set(data):
    _, metrics = end_to_end()
    runs = data["runs"]
    ok = True
    print(f"{data['workload']}: {len(runs)} runs")
    for name, m in metrics.items():
        med, q1, q3, spread = summary(runs, name)
        target = m["bound"] / 3
        flag = "ok" if spread < target else "UNSTEADY"
        ok &= flag == "ok"
        print(f"  {name:14s} median {med:.6g} {m['unit']}  Q1 {q1:.6g}  "
              f"Q3 {q3:.6g}  spread {spread:.4f} (bound/3 {target:.4f}) {flag}")
    share, attempted = failed_share(runs)
    print(f"  failed share {share:.6f} of {attempted} attempted")
    ok &= all(r["correct"] for r in runs)
    return 0 if ok else 1


def compare(args):
    _, metrics = end_to_end()
    a, b = load(args.first), load(args.second)
    ok = True
    for name, m in metrics.items():
        med_a, _, _, spread_a = summary(a["runs"], name)
        med_b, _, _, spread_b = summary(b["runs"], name)
        worse = (med_a - med_b) / med_a if m["better"] == "higher" \
            else (med_b - med_a) / med_a
        checks = [worse <= m["bound"], spread_a <= m["bound"],
                  spread_b <= m["bound"]]
        flag = "ok" if all(checks) else "FAIL"
        ok &= flag == "ok"
        print(f"  {name:14s} {med_a:.6g} -> {med_b:.6g}  worse by {worse:+.4f} "
              f"(bound {m['bound']})  spreads {spread_a:.4f} / {spread_b:.4f} "
              f"{flag}")
    share_a, _ = failed_share(a["runs"])
    share_b, _ = failed_share(b["runs"])
    same = share_a == share_b
    ok &= same
    print(f"  failed share {share_a:.6f} vs {share_b:.6f} "
          f"{'ok' if same else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    r.add_argument("--out", required=True)
    s = sub.add_parser("show")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.cmd == "run":
        return run_set(args)
    if args.cmd == "show":
        return show_set(load(args.set))
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
