"""Client process: one closed-loop client running one workload.

Started by run.py in its own child process (so its peak RSS is the
workload's), with the checkout's `src` on PYTHONPATH. Each request is one
`stencil_spectra.cli.run(argv)` call with stdout captured; the next request
starts when the previous one has returned. Prints one JSON object.

A run first prepares the stencil files, then plays the seed's round
`--rounds` times, each time in a freshly seeded order. Every request's exit
code and stdout digest are compared with the digests recorded at the seed
commit after the request's clock has stopped. The outputs of the first
round and the stencil files are saved for the independent checks of
`checks.py`, which run.py runs after this process has ended, so that their
memory is not in this process's peak RSS.

With --trace 1 the timed rounds alternate untraced and traced; the traced
ones run under the span recorder and give the per-layer numbers, and the
pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import time

import checks
import reference
import workloads
from tracing import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def execute(cli, argv):
    """One request: (seconds, exit code or None if run raised, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # a raising request is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue().strip()


def _thread_count() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Client:
    def __init__(self, cli, golden):
        self.cli = cli
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.saved: list[tuple] = []  # (argv, path, failed) for checks.py
        self.threads_max = _thread_count()

    def request(self, argv, save_to=None):
        """Run one request; return (seconds, stdout). The digest is compared
        after the clock stopped; with `save_to`, stdout is also written
        there for the independent check."""
        elapsed, code, text, error = execute(self.cli, argv)
        self.attempted += 1
        key = " ".join(argv)
        problems = []
        expected = self.golden.get(key)
        if code is None:
            problems.append(f"raised {error}")
        elif expected is None:
            problems.append("no recorded digest for this argv")
        else:
            if code != expected[0]:
                problems.append(f"exit code {code}, expected {expected[0]} ({error})")
            if digest(text) != expected[1]:
                problems.append("stdout differs from the recorded bytes")
        if problems:
            self.failures.append(f"{key}: {'; '.join(problems)}")
        if save_to and code == 0:
            with open(save_to, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.saved.append((argv, save_to, bool(problems)))
        self.threads_max = max(self.threads_max, _thread_count())
        return elapsed, text


def prepare_files(client) -> None:
    """Write the stencil files and empty the directory of saved outputs."""
    os.makedirs(workloads.STENCIL_DIR, exist_ok=True)
    for path, argv in workloads.stencil_file_argvs():
        client.request(argv, save_to=path)
    shutil.rmtree(workloads.OUTPUT_DIR, ignore_errors=True)
    os.makedirs(workloads.OUTPUT_DIR)


def output_rows(argv, text) -> int:
    """Data rows of a table output (stencil nodes, spectrum bins, samples)."""
    if argv[0] == "verify" or not text:
        return 0
    fmt = checks.options(argv).get("format", "csv")
    if fmt == "json":
        data = json.loads(text)
        return len(data["nodes"]) if argv[0] == "stencil" else len(data)
    header_lines = 2 if argv[0] == "stencil" else 1
    return text.count("\n") - header_lines


def layer_metrics(recorder, factors, rows, spectrum_rows, out_bytes,
                  traced_mean_s, untraced_mean_s) -> dict:
    """Per-layer metrics of the traced requests; times in reference seconds
    (each span scaled by its request's factor), per request."""
    own = recorder.self_times()
    self_by_layer, self_by_name, calls_by_layer, calls_by_name = {}, {}, {}, {}
    for (name, layer, _, _, _, request), wall in zip(recorder.spans, own):
        t = wall * factors[request]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        calls_by_layer[layer] = calls_by_layer.get(layer, 0) + 1
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
    # half_point builds reached through the signals namespace from inside
    # differentiate_half_point
    index_name = [s[0] for s in recorder.spans]
    rebuilds = sum(1 for name, _, _, _, parent, _ in recorder.spans
                   if name == "signals.half_point" and parent >= 0
                   and index_name[parent] == "signals.differentiate_half_point")
    hp_calls = calls_by_name.get("signals.differentiate_half_point", 0)
    ref_calls = calls_by_name.get("spectra.reference_value", 0)
    request_s = sum((end - start) * factors[request]
                    for name, _, start, end, _, request in recorder.spans
                    if name == "cli.run")
    c = recorder.counters
    per = 1.0 / len(factors)
    values = {
        "weights.self_s": (self_by_layer.get("weights", 0.0) * per, "s/req"),
        "weights.calls": (calls_by_layer.get("weights", 0) * per, "count/req"),
        "oracle.self_s": (self_by_layer.get("oracle", 0.0) * per, "s/req"),
        "oracle.calls": (calls_by_layer.get("oracle", 0) * per, "count/req"),
        "spectra.self_s": (self_by_layer.get("spectra", 0.0) * per, "s/req"),
        "spectra.dft_spectrum.self_s":
            (self_by_name.get("spectra.dft_spectrum", 0.0) * per, "s/req"),
        "spectra.dft_spectrum.tap_bins":
            (c["spectra.dft_spectrum.tap_bins"] * per, "count/req"),
        "spectra.limit_grid.self_s":
            (self_by_name.get("spectra.truncated_limit_spectrum_dft_grid", 0.0) * per,
             "s/req"),
        "spectra.limit_grid.table_bytes":
            (c["spectra.limit_grid.table_bytes"] * per, "B/req"),
        "spectra.reference_value.calls": (ref_calls * per, "count/req"),
        "spectra.reference_value.calls_per_row":
            (ref_calls / spectrum_rows if spectrum_rows else 0.0, "ratio"),
        "signals.self_s": (self_by_layer.get("signals", 0.0) * per, "s/req"),
        "signals.differentiate.self_s":
            (self_by_name.get("signals.differentiate", 0.0) * per, "s/req"),
        "signals.differentiate.points":
            (c["signals.differentiate.points"] * per, "count/req"),
        "signals.half_point.self_s":
            (self_by_name.get("signals.half_point", 0.0) * per, "s/req"),
        "signals.half_point.builds_per_call":
            (rebuilds / hp_calls if hp_calls else 0.0, "ratio"),
        "signals.make_signal.self_s":
            (self_by_name.get("signals.make_signal", 0.0) * per, "s/req"),
        "cli.self_s": (self_by_layer.get("cli", 0.0) * per, "s/req"),
        "cli.rows": (rows * per, "count/req"),
        "cli.out_bytes": (out_bytes * per, "B/req"),
        "trace.request_s": (request_s * per, "s/req"),
        "trace.overhead_frac": (traced_mean_s / untraced_mean_s - 1.0, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    import stencil_spectra
    from stencil_spectra import cli, oracle, signals, spectra, weights

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["digests"]
    client = Client(cli, golden)
    prepare_files(client)
    round_ = workloads.make_round(args.workload, args.seed)

    recorder = SpanRecorder(stencil_spectra, {
        "weights": weights, "oracle": oracle, "spectra": spectra,
        "signals": signals, "cli": cli})
    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    latencies, raw_latencies, round_seconds, raw_round_seconds, factors = [], [], [], [], []
    traced = {"requests": 0, "seconds": 0.0, "rows": 0, "spectrum_rows": 0,
              "out_bytes": 0, "untraced_requests": 0, "untraced_seconds": 0.0}
    for index in range(args.rounds):
        order = list(round_)
        order_rng.shuffle(order)
        tracing = args.trace == 1 and index % 2 == 1
        if tracing:
            recorder.install()
        busy = raw_busy = 0.0
        before = reference.timed()
        for argv in order:
            if tracing:
                recorder.request += 1
            save_to = (os.path.join(workloads.OUTPUT_DIR, f"{len(client.saved)}.out")
                       if index == 0 else None)
            elapsed, text = client.request(argv, save_to)
            after = reference.timed()
            factor = reference.scale(before, after)
            before = after
            busy += elapsed * factor
            raw_busy += elapsed
            latencies.append(elapsed * factor)
            raw_latencies.append(elapsed)
            if tracing:
                factors.append(factor)
                rows = output_rows(argv, text)
                traced["rows"] += rows
                if argv[0] == "spectrum" or (argv[0] == "figure" and argv[1] != "2b"):
                    traced["spectrum_rows"] += rows
                traced["out_bytes"] += len(text.encode("utf-8"))
        if tracing:
            recorder.uninstall()
            traced["requests"] += len(order)
            traced["seconds"] += busy
        elif args.trace == 1:
            traced["untraced_requests"] += len(order)
            traced["untraced_seconds"] += busy
        round_seconds.append(busy)
        raw_round_seconds.append(raw_busy)

    result = {
        "round_size": len(round_),
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "round_seconds": round_seconds,
        "raw_round_seconds": raw_round_seconds,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failures": client.failures[:20],
        "saved": client.saved,
        "threads_max": client.threads_max,
    }
    if args.trace == 1:
        result["per_layer"] = layer_metrics(
            recorder, factors, traced["rows"], traced["spectrum_rows"],
            traced["out_bytes"], traced["seconds"] / traced["requests"],
            traced["untraced_seconds"] / traced["untraced_requests"])
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
