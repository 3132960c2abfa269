"""Replay every argv of perfbench/golden.json through `cli.run` and compare
its exit code and stdout digest (the first 16 hex digits of its SHA-256)
with the recorded ones.

    python tests/replay_golden.py

Runs from any directory, in one process, with one BLAS thread (the digests
were recorded that way, and gemv's rounding depends on the thread count).
It first writes the stencil files that the `diff --stencil-file` argvs read,
with the program's own `stencil --format json`, at the paths
perfbench/workloads.py names. Each argv runs through `execute` and
`digest` of perfbench/child.py, the functions perfbench/record.py recorded
the digests with; perfbench/ is only read. Exits 1 naming each mismatch, or
prints one summary line. The digests hold for the numpy version golden.json
records; the summary and the failure report name both, and the OpenBLAS
core that numpy's BLAS picks on this CPU (the fold's gemv rounds by it).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

# before numpy loads BLAS
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy  # noqa: E402
import workloads  # noqa: E402
from child import digest, execute  # noqa: E402
from stencil_spectra import cli  # noqa: E402


def replay(argv: list[str]) -> tuple[int | str, str]:
    """Exit code (or the exception `cli.run` raised) and stdout of one run."""
    _, code, text, error = execute(cli, argv)
    return (f"raised {error}" if code is None else code), text


def openblas_core() -> str:
    """The core OpenBLAS picks, as a child's `import numpy` names it on
    stderr with OPENBLAS_VERBOSE=2 (`Core: SkylakeX`), or "unknown"."""
    child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    match = re.search(r"^Core: (\S+)", child.stderr, re.MULTILINE)
    return match.group(1) if match else "unknown"


def main() -> int:
    os.chdir(ROOT)  # the stencil file paths are relative to the checkout
    with open(os.path.join("perfbench", "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    os.makedirs(workloads.STENCIL_DIR, exist_ok=True)
    for path, argv in workloads.stencil_file_argvs():
        code, text = replay(argv)
        if code != 0:
            print(f"{' '.join(argv)}: exit {code}, so {path} was not written", file=sys.stderr)
            return 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    mismatches = []
    for key, expected in golden["digests"].items():
        code, text = replay(key.split(" "))  # no argument holds a space
        got = [code, digest(text)]
        if got != expected:
            mismatches.append(f"{key}: expected {expected}, got {got}")
    recorded = golden["environment"]["numpy"]
    versions = (f"numpy {numpy.__version__}, OpenBLAS core {openblas_core()}, "
                f"golden.json recorded with {recorded}")
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
        print(f"{len(mismatches)} of {len(golden['digests'])} argvs differ from "
              f"golden.json ({versions})", file=sys.stderr)
        return 1
    print(f"{len(golden['digests'])} argvs match golden.json in exit code and digest ({versions})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
