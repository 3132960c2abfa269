"""Run every workload over two sets of ten seeds and report every metric.

    python3 perfbench/suite.py                      # end to end
    python3 perfbench/suite.py --trace              # adds one traced run per workload
    python3 perfbench/suite.py --trace --out perfbench/baseline.json

Every workload of BENCHMARK.json runs with seeds 1-10 (set 1) and 101-110
(set 2), each run for its run_seconds. For each workload and end-to-end
metric it prints the median, the quartiles and their spread (IQR / median,
with statistics.quantiles(n=4)) of set 1, the number of runs and of samples
behind each run's value, whether the spread is within a third of the
metric's bound, whether the two sets' medians agree within the bound, and
fail_frac (failed / attempted requests). Exits 1 when any request failed or
the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SET_FIRST_SEEDS = (1, 101)


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, ".perfbench_out", f"{tag}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true",
                        help="also one traced run per workload (per-layer metrics)")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    e2e = {m["name"]: m for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, first + i, seconds, 0) for i in range(SEEDS)]
                for first in SET_FIRST_SEEDS]
        print(f"\n== {workload}: {len(sets)} sets x {SEEDS} runs, {seconds} s each")
        entry = {"end_to_end": {}}
        for name, spec in e2e.items():
            per_set = [[r["metrics"][name]["value"] for r, _ in runs] for runs in sets]
            samples = sets[0][0][1]["samples"][name]
            q1, med, q3, sp = spread(per_set[0])
            verdict = "ok" if sp <= spec["bound"] / 3 else "WIDE"
            line = (f"  {name:16s} {med:10.5g} {spec['unit']:4s} q1 {q1:.5g} q3 {q3:.5g} "
                    f"spread {sp:.3f} (bound {spec['bound']}) {verdict}; "
                    f"{len(per_set[0])} runs x {samples} samples")
            medians = [statistics.median(v) for v in per_set]
            change = (medians[1] - medians[0]) / medians[0]
            agree = abs(change) <= spec["bound"]
            ok &= agree
            line += f"; set 2 vs 1: {change:+.3f} {'agree' if agree else 'DISAGREE'}"
            print(line)
            item = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                    "spread": sp, "runs": len(per_set[0]), "samples_per_run": samples,
                    "set2_median": medians[1]}
            entry["end_to_end"][name] = item
        records = [rec for runs in sets for _, rec in runs]
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        ok &= failed == 0
        print(f"  {'fail_frac':16s} {failed / attempted:10.5g} ratio ({failed}/{attempted} "
              f"requests over {len(records)} runs)")
        for rec in records:
            for failure in rec["failures"]:
                print(f"    FAILED seed {rec['seed']}: {failure}")
        first = records[0]
        print(f"  latency_tail_s is p{first['tail_percentile']:.2f} of "
              f"{first['rounds']} rounds x {first['round_size']} requests; threads "
              f"{json.dumps(first['threads'])}")
        entry.update(fail_frac=failed / attempted, attempted=attempted,
                     tail_percentile=first["tail_percentile"], rounds=first["rounds"],
                     round_size=first["round_size"], threads=first["threads"],
                     seeds=[rec["seed"] for rec in records])
        if args.trace:
            result, record = run_once(workload, 1, seconds, 1)
            print("  per-layer (traced run, seed 1):")
            for name, metric in result["metrics"].items():
                print(f"    {name:40s} {metric['value']:.6g} {metric['unit']}")
            entry["per_layer_seed1"] = result["metrics"]
            ok &= result["failed"] == 0
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
