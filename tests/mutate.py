"""Mutation testing: which one-site changes of a module do the tests miss?

    python tests/mutate.py [--list] [--function NAME]... SOURCE [-- PYTEST_ARGS...]

SOURCE is a Python file of this repository, such as
src/stencil_spectra/spectra.py. Each mutant changes one site of it:

- a binary or augmented operator: + and - swapped, * and / swapped
- a comparison: < and <=, > and >=, == and != swapped
- an integer constant plus one, or minus one
- a statement replaced by `pass`, unless it is a docstring, a def, a class
  or an import

`--function NAME` keeps the sites inside the named functions (give it once
per function). NAME is a function's qualified name, its enclosing classes
and functions joined by dots, such as `Stencil.__init__`, or its bare name,
which takes every function of that name. `--list` prints the mutants, each
with the qualified name of the function that holds it, and runs nothing.

Otherwise the repository is copied to a temporary directory, and nothing in
the tree the tool reads is written. In the copy, SOURCE is rewritten by
ast.unparse, first unmutated and then once per mutant, and each version runs
`python -m pytest -x -q -p no:cacheprovider --assert=plain PYTEST_ARGS` with
the copy's src/ first on the path and no bytecode written. A failed test
ends a mutant's run at once: the copy's root conftest.py loads a Hypothesis
profile without the shrink and explain phases, and plain asserts spare
pytest its diff of two whole tables (a failing 2,049-row example, replayed
from the copy's example database, ran past 200 s with the diff and took
3 s without it). The unmutated run must pass
(the tool exits 2 otherwise), and it sets the timeout: three times its time
plus 10 s. Each mutant prints as killed (a test failed or could not run),
survived (every test passed) or timeout, and a last line counts each. Exits
1 if any mutant survived or timed out. The environment passes through: set
OPENBLAS_NUM_THREADS=1 as tier-1 does, since some tests compare digests
recorded with one BLAS thread.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<",
            ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
_KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)

# appended to the copy's root conftest.py: a mutant that a property test
# catches is killed as soon as the property fails, not after its example
# is shrunk
_CONFTEST = """
from hypothesis import Phase, settings

settings.register_profile("mutate", phases=[phase for phase in Phase
                                            if phase not in (Phase.shrink, Phase.explain)])
settings.load_profile("mutate")
"""


def _text(node: ast.AST) -> str:
    """The node's first line of source, quoted and cut to 60 characters."""
    return f"`{ast.unparse(node).splitlines()[0][:60]}`"


def _owners(tree: ast.Module) -> dict[int, str]:
    """id(node) -> the qualified name of the innermost function that holds
    the node (a def holds itself), such as `Stencil.__init__`, or
    `<module>`."""
    owner = {}

    def visit(node, scope: tuple[str, ...], function: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
            if not isinstance(node, ast.ClassDef):
                function = ".".join(scope)
        owner[id(node)] = function
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(tree, (), "<module>")
    return owner


def _sites(tree: ast.Module, functions: set[str]):
    """(node, function, label, apply) for each mutant; apply() changes the
    tree in place. A site is kept when functions is empty or names its
    function, qualified or bare."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        function = owner[id(node)]
        if functions and not {function, function.rsplit(".", 1)[-1]} & functions:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            old = type(node.op)
            yield node, function, f"{_SYMBOLS[old]} -> {_SYMBOLS[_SWAPS[old]]} in {_text(node)}", \
                lambda node=node, old=old: setattr(node, "op", _SWAPS[old]())
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    old = type(op)
                    label = f"{_SYMBOLS[old]} -> {_SYMBOLS[_SWAPS[old]]} in {_text(node)}"
                    yield node, function, label, \
                        lambda node=node, i=i, old=old: node.ops.__setitem__(i, _SWAPS[old]())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for delta in (1, -1):
                yield node, function, f"{node.value} -> {node.value + delta}", \
                    lambda node=node, delta=delta: setattr(node, "value", node.value + delta)
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, statement in enumerate(block):
                docstring = (i == 0 and isinstance(statement, ast.Expr)
                             and isinstance(statement.value, ast.Constant)
                             and isinstance(statement.value.value, str))
                if docstring or isinstance(statement, _KEPT):
                    continue
                yield statement, owner[id(statement)], f"delete {_text(statement)}", \
                    lambda block=block, i=i: block.__setitem__(i, ast.Pass())


def _ordered(tree: ast.Module, functions: set[str]) -> list:
    """The sites by source position (a comparison's operators in turn)."""
    return sorted(_sites(tree, functions), key=lambda site: (site[0].lineno, site[0].col_offset))


def mutants(source: str, functions: set[str]) -> list[str]:
    """The label of each mutant, numbered as mutant_source takes them."""
    return [f"{n:4d} line {node.lineno} {function}: {label}"
            for n, (node, function, label, _) in enumerate(_ordered(ast.parse(source), functions))]


def mutant_source(source: str, functions: set[str], n: int) -> str:
    """The source with mutant n applied, as ast.unparse writes it."""
    tree = ast.parse(source)
    _ordered(tree, functions)[n][3]()
    return ast.unparse(tree)


def _pytest(copy: str, args: list[str], timeout: float | None):
    """pytest's exit code and output in the copy, or (None, "") after the
    timeout, when its whole process group is killed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(copy, "src"),
                                           *filter(None, [os.environ.get("PYTHONPATH")])]))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--assert=plain", *args]
    with subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, start_new_session=True) as process:
        try:
            output, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return None, ""
    return process.returncode, output.decode(errors="replace")


def main(argv: list[str]) -> int:
    ours, pytest_args = (argv[:argv.index("--")], argv[argv.index("--") + 1:]) \
        if "--" in argv else (argv, [])
    parser = argparse.ArgumentParser(description="Mutation testing of one module.")
    parser.add_argument("source", help="a Python file of the repository")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only inside this function (repeatable)")
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    args = parser.parse_args(ours)
    relative = os.path.relpath(os.path.abspath(args.source), ROOT)
    if relative.startswith(os.pardir):
        parser.error(f"{args.source} is not inside {ROOT}")
    with open(os.path.join(ROOT, relative), encoding="utf-8") as fh:
        source = fh.read()
    functions = set(args.function)
    labels = mutants(source, functions)
    if not labels:
        parser.error(f"{relative} has no mutation site" + " in those functions" * bool(functions))
    if args.list:
        print("\n".join(labels))
        print(f"{len(labels)} mutants of {relative}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = os.path.join(scratch, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))
        with open(os.path.join(copy, "conftest.py"), "a", encoding="utf-8") as fh:
            fh.write(_CONFTEST)
        target = os.path.join(copy, relative)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        code, output = _pytest(copy, pytest_args, None)
        if code != 0:
            print(output + f"the unmutated {relative} fails these tests (exit {code})")
            return 2
        timeout = 3 * (time.perf_counter() - start) + 10
        counts = {"killed": 0, "survived": 0, "timeout": 0}
        for n, label in enumerate(labels):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutant_source(source, functions, n))
            code, _ = _pytest(copy, pytest_args, timeout)
            outcome = "timeout" if code is None else "survived" if code == 0 else "killed"
            counts[outcome] += 1
            print(f"{outcome:8s} {label}", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items())
          + f" of {len(labels)} mutants of {relative}")
    return 1 if counts["survived"] or counts["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
