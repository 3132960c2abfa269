"""Record the expected exit code and stdout digest of every argv any seed of
any workload can draw, into golden.json.

    python3 perfbench/record.py

Run it only at a commit whose output is the reference: the benchmark counts
every later difference from these bytes as a failed request. Runs in the
environment the client process uses (run.child_env).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def dump(golden: dict) -> str:
    """JSON with one digest per line, so a re-recording diffs line by line."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden["digests"].items())]
    return ('{\n"environment": ' + json.dumps(golden["environment"], sort_keys=True)
            + ',\n"digests": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    env = run.child_env()
    if any(os.environ.get(k) != v for k, v in run.PINNED_THREADS.items()) \
            or "STENCIL_SPECTRA_THREADS" in os.environ:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)], env)
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    import numpy
    from stencil_spectra import cli
    import checks
    from child import digest, execute

    stencil_files = {" ".join(argv): path for path, argv in workloads.stencil_file_argvs()}
    os.makedirs(workloads.STENCIL_DIR, exist_ok=True)
    # stencil-file argvs first: the diff argvs read the files they write
    argvs = [argv for _, argv in workloads.stencil_file_argvs()]
    for name in workloads.WORKLOADS:
        argvs += workloads.all_argvs(name)
    digests = {}
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        key = " ".join(argv)
        if key in digests:
            continue
        _, code, text, error = execute(cli, argv)
        if code is None:
            raise SystemExit(f"{key} raised {error}")
        problems = checks.check(argv, text) if code == 0 else []
        if problems:
            raise SystemExit(f"{key}: {'; '.join(problems)}")
        digests[key] = [code, digest(text)]
        if key in stencil_files:
            with open(stencil_files[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        if i % 200 == 0:
            print(f"{i}/{len(argvs)} {time.perf_counter() - start:.0f}s", file=sys.stderr)
    golden = {
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "threads": {k: os.environ.get(k) for k in run.THREAD_VARS},
        },
        "digests": digests,
    }
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        fh.write(dump(golden))
    print(f"recorded {len(digests)} argvs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
