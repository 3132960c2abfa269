"""Paired benchmark runs of two trees, and whether a change wins.

    python tests/bench_pairs.py --parent REV [--change REV|.] --workload W [W ...]
        --seeds A-B [--seconds S] --out BENCH_<n>.json

Each tree is extracted into a temporary directory: a revision by `git
archive`, and `.` (the default change) as a copy of the working tree's
tracked and untracked, not ignored, files. For every workload and seed,
each tree runs its own `perfbench/run.py --workload W --seed S --seconds S
--trace 0`, one run at a time; the parent runs first at an even seed and
the change at an odd one. Each tree checks its requests against its own
`perfbench/golden.json`, so a change that alters bytes on purpose is
measured against its own record.

The output file holds one JSON object:
- `environment`: both trees' commits, Python, numpy, the OpenBLAS version
  and the core it picks (from a child's `import numpy` with
  OPENBLAS_VERBOSE=2, as tests/replay_golden.py reads it), the CPU model,
  the CPU count, the BLAS thread variables (perfbench/run.py pins one
  thread in every process it starts) and PYTHONDONTWRITEBYTECODE
- `pairs`: each seed's end-to-end metrics, attempted and failed requests on
  both sides, and which side ran first
- `summary`: per workload and metric of BENCHMARK.json, both sides'
  medians and quartiles (inclusive method), the change's wins, the median
  gap (change minus parent) and whether the win rule holds: the change is
  better in at least 9 of every 10 pairs, and its median is better than the
  parent's by more than the parent's interquartile range.

Progress goes to stderr. Exits 1 if a run fails or any request fails on
either side (the file is still written), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NUMPY_CHILD = ("import json, numpy; blas = numpy.show_config(mode='dicts')"
                "['Build Dependencies']['blas']; "
                "print(json.dumps([numpy.__version__, blas.get('version', 'unknown')]))")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: str) -> str:
    """Write the tree of rev (`.`: the working tree) into the directory
    `into`; return what it is: the commit, or HEAD's commit and whether
    the working tree differs from it."""
    os.makedirs(into)
    if rev == ".":
        for path in _git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
            if path and os.path.isfile(os.path.join(ROOT, path)):
                os.makedirs(os.path.join(into, os.path.dirname(path)), exist_ok=True)
                shutil.copy2(os.path.join(ROOT, path), os.path.join(into, path))
        dirty = " with changes" if _git("status", "--porcelain") else ""
        return f"working tree at {_git('rev-parse', 'HEAD')}{dirty}"
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(into, filter="data")
            else:
                tar.extractall(into)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed")
    return _git("rev-parse", f"{rev}^{{commit}}")


def environment(commits: dict) -> dict:
    """The facts a reader needs to compare this file with another."""
    child = subprocess.run([sys.executable, "-c", _NUMPY_CHILD], capture_output=True,
                           text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    numpy_version, blas_version = (json.loads(child.stdout) if child.returncode == 0
                                   else ("unknown", "unknown"))
    core = re.search(r"^Core: (\S+)", child.stderr, re.MULTILINE)
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "commits": commits,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "openblas": blas_version,
        "openblas_core": core.group(1) if core else "unknown",
        "cpu": cpu,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas_threads_in_runs": 1,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One `perfbench/run.py` of the tree: its metric values, attempted and
    failed requests; None if the run gave no result."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    return {**{name: metric["value"] for name, metric in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's wins, the median gap
    and whether the win rule holds."""
    summary = {}
    for name, direction in better.items():
        sign = -1 if direction == "lower" else 1  # gain = sign * (change - parent)
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "better": direction,
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "wins": wins, "pairs": len(pairs),
            "median_gap": cm - pm,
            "relative_gap": (cm - pm) / pm if pm else None,
            "rule_holds": 10 * wins >= 9 * len(pairs) and sign * (cm - pm) > p3 - p1,
        }
    return summary


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", default=".", help="a revision, or . for the working tree")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, or one seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {metric["name"]: metric["better"] for metric in json.load(fh)["end_to_end"]}
    failed = False
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees, commits = {}, {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(scratch, side)
            commits[side] = extract(getattr(args, side), trees[side])
        for workload in args.workload:
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                    print(f"bench_pairs: {workload} seed {seed} {side}: {pair[side]}",
                          file=sys.stderr)
                    failed = failed or pair[side] is None or pair[side]["failed"] > 0
                pairs.append(pair)
    complete = [pair for pair in pairs if pair["parent"] and pair["change"]]
    document = {
        "environment": {**environment(commits), "seconds": args.seconds},
        "pairs": pairs,
        "summary": {workload: summarise([p for p in complete if p["workload"] == workload],
                                        better)
                    for workload in args.workload
                    if any(p["workload"] == workload for p in complete)},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    for workload, metrics in document["summary"].items():
        for name, row in metrics.items():
            print(f"{workload:14s} {name:15s} parent {row['parent']['median']:.6g} "
                  f"change {row['change']['median']:.6g} wins {row['wins']}/{row['pairs']} "
                  f"rule {'holds' if row['rule_holds'] else 'fails'}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
