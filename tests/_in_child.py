"""The tests' child-process runner: a helper module, not collected."""

import json
import os
import subprocess
import sys

import stencil_spectra


def run_child(*args, **env) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this package with args, and
    with env added to its environment; its stdout and stderr are bytes."""
    src = os.path.dirname(os.path.dirname(stencil_spectra.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=600)


def in_child(code, *args, **env):
    """Run code with args in a fresh interpreter that imports this package,
    with env added to its environment, and return the JSON it prints."""
    child = run_child("-c", code, *args, **env)
    assert child.returncode == 0, child.stderr.decode()
    return json.loads(child.stdout)
