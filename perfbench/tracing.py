"""Outside-in span recorder for the traced run.

The program is not instrumented: `SpanRecorder.install` replaces each public
function of `weights`, `oracle`, `spectra` and `signals` by a timing wrapper
in every module namespace that binds it, plus `cli.run` itself, and
`uninstall` puts the originals back. A span is named after the namespace the
call went through (`signals.half_point` is `weights.half_point` reached
through the name `signals` imported), and belongs to the layer of the module
that defines the function. `weights.build` dispatches through a private dict
of the original generators, so it is one span that includes the generator.

Counters are derived from call arguments only, so they repeat exactly for a
given seed.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("weights", "oracle", "spectra", "signals")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _embedded_taps(source, mode) -> int | None:
    """Nonzero DFT taps `dft_spectrum` embeds for a stencil or a mapping
    (the two sources the CLI passes); None for any other source."""
    if hasattr(source, "nodes"):
        offsets = [o for o, _ in source.nodes if o >= 0]
    elif hasattr(source, "keys"):
        offsets = list(source.keys())
    else:
        return None
    mirrored = getattr(mode, "value", mode) != "half-sequence"
    return sum(2 if (mirrored and o >= 1) else 1 for o in offsets)


def _count_dft(counters, bound):
    taps = _embedded_taps(bound["source"], bound["mode"])
    if taps is not None:
        counters["spectra.dft_spectrum.tap_bins"] += taps * bound["N"]


def _count_limit_grid(counters, bound):
    N = bound["N"]
    # the angle table and its cos or sin, float64, N x (N/2+1) each
    counters["spectra.limit_grid.table_bytes"] += 2 * 8 * N * (N // 2 + 1)


def _count_differentiate(counters, bound):
    counters["signals.differentiate.points"] += len(bound["signal"])


_COUNTERS = {
    "spectra.dft_spectrum": _count_dft,
    "spectra.truncated_limit_spectrum_dft_grid": _count_limit_grid,
    "signals.differentiate": _count_differentiate,
}


class SpanRecorder:
    """Records (name, layer, start, end, parent, request) spans in memory."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules  # short name -> module, cli included
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counters, bound.arguments)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.request)

        return wrapper

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    targets[value] = layer
        namespaces = [self.package] + list(self.modules.values())
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in targets:
                    owner = (_short(value.__module__) if namespace is self.package
                             else _short(namespace.__name__))
                    wrapped = self._wrap(f"{owner}.{attr}", targets[value], value)
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped)
        cli = self.modules["cli"]
        self._patches.append((cli, "run", cli.run))
        cli.run = self._wrap("cli.run", "cli", cli.run)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tlayer\tstart\tend\tparent\trequest\n")
            for name, layer, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")
