"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-weights --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics. A readable summary goes to stderr and
a full record (latency samples, thread environment, failures) to
`.perfbench_out/`. Exits 2 without a result when the checkout has no
program, and 1 when the client process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# set-up samples taken before and again after the client process, so a
# run's median spans the host's speed over the whole run
SETUP_RUNS = 5
# Threads the fold's matrix product may use. The bytes of `figure 1a|1b`
# depend on OpenBLAS's thread count, so it is pinned to one, which is also
# within nproc on every machine; the recorded digests were made this way.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
THREAD_VARS = tuple(PINNED_THREADS) + ("STENCIL_SPECTRA_THREADS",)


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    src first on the path, BLAS threads pinned, and the program's own
    STENCIL_SPECTRA_THREADS unset (its shipped default)."""
    env = dict(os.environ)
    env.pop("STENCIL_SPECTRA_THREADS", None)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_up(env, code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup(env, runs: int) -> list[float]:
    """Time for a fresh interpreter to finish `import stencil_spectra.cli`,
    `runs` times, in reference seconds: each wall time is scaled by
    REFERENCE_START_S / (mean wall time of a fresh `import numpy` right
    before and right after it)."""
    samples = []
    before = _start_up(env, reference.REFERENCE_START_CODE)
    for _ in range(runs):
        elapsed = _start_up(env, "import stencil_spectra.cli")
        after = _start_up(env, reference.REFERENCE_START_CODE)
        samples.append(elapsed * reference.REFERENCE_START_S / ((before + after) / 2))
        before = after
    return samples


def run_client(args, rounds, env, spans_path):
    """Run the client process (child.py); return its result and
    its peak RSS in MB, read with wait4."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rounds", str(rounds), "--trace", str(args.trace)]
    if spans_path:
        argv += ["--spans", spans_path]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"client process exited with {proc.returncode}")
    return json.loads(out), usage.ru_maxrss / 1024.0


def check_outputs(result) -> None:
    """Run the independent checks on the outputs the client process saved, here
    so that their memory is not in its peak RSS. A request that fails
    a check counts as failed once, even if its digest also differed."""
    for argv, path, failed in result["saved"]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            problems = checks.check(argv, text)
        except Exception as exc:  # an output the check cannot even parse
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            result["failures"].append(f"{' '.join(argv)}: {'; '.join(problems)}")
            if not failed:
                result["failed"] += 1
    shutil.rmtree(workloads.OUTPUT_DIR, ignore_errors=True)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it,
    and that percentile."""
    ordered = sorted(latencies)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def rounds_for(workload: str, seconds: float, trace: int) -> int:
    rounds = max(2, round(seconds / workloads.ROUND_SECONDS[workload]))
    return rounds + rounds % 2 if trace else rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "stencil_spectra", "cli.py")):
        print(f"perfbench: no program at {SRC}/stencil_spectra; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = rounds_for(args.workload, args.seconds, args.trace)
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.tsv") if args.trace else None
    setup = []
    try:
        if not args.trace:
            # the first import writes the bytecode cache, as an installed
            # program would have it
            _start_up(env, "import stencil_spectra.cli")
            setup += measure_setup(env, SETUP_RUNS)
        result, peak_rss_mb = run_client(args, rounds, env, spans_path)
        if not args.trace:
            setup += measure_setup(env, SETUP_RUNS)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    check_outputs(result)
    latencies = result["latencies"]
    size = result["round_size"]
    samples = {}
    if args.trace:
        metrics = result["per_layer"]
    else:
        tail_s, tail_pct = tail(latencies)
        throughput = len(latencies) / sum(result["round_seconds"])
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        samples = {"setup_s": len(setup), "throughput_rps": len(latencies),
                   "latency_p50_s": len(latencies), "latency_tail_s": len(latencies),
                   "peak_rss_mb": 1}
        wall_rps = len(latencies) / sum(result["raw_round_seconds"])
        print(f"perfbench {tag}: {rounds} rounds x {size} requests; latency_tail_s "
              f"is p{tail_pct:.2f}; request times in reference seconds (wall: "
              f"{wall_rps:.4g} requests/s)", file=sys.stderr)
    fail_frac = result["failed"] / result["attempted"]
    for name, metric in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{count}", file=sys.stderr)
    print(f"  {'fail_frac':40s} {fail_frac:.6g}  ({result['failed']}/{result['attempted']})",
          file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "round_size": size,
        "metrics": metrics, "samples": samples, "fail_frac": fail_frac,
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "setup_samples": setup,
        "latencies": latencies,
        "raw_latencies": result["raw_latencies"],
        "round_seconds": result["round_seconds"],
        "raw_round_seconds": result["raw_round_seconds"],
        "tail_percentile": None if args.trace else tail_pct,
        "threads": {"max_in_client": result["threads_max"],
                    "nproc": len(os.sched_getaffinity(0)),
                    "env": {v: env.get(v) for v in THREAD_VARS}},
        "python": sys.version.split()[0],
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
