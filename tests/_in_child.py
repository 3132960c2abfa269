"""The tests' child-process runner: a helper module, not collected."""

import json
import os
import subprocess
import sys

import stencil_spectra


def in_child(code, *args, **env):
    """Run code with args in a fresh interpreter that imports this package,
    with env added to its environment, and return the JSON it prints."""
    src = os.path.dirname(os.path.dirname(stencil_spectra.__file__))
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)
