"""Seeded request generators for the three benchmark workloads.

A workload is a list of slots. One *round* holds one request per slot, and a
run repeats the round it drew from its seed. Each slot is an argv template
whose parameters come from finite choice lists, so every argv any seed can
draw is enumerable (`all_argvs`) and has a recorded expected digest.

Parameters that set a request's cost (N, taps, points, max-n, the larger
family parameters) are fixed per slot or dealt across a group of slots from
a fixed multiset. The seed draws everything else (families, embeddings,
parts, test functions, formats, small n) and the request order. Rounds from
different seeds therefore cost about the same, which keeps the run-to-run
spread small enough for the benchmark's bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# Stencil JSON files for `diff --stencil-file`, written (by the program's own
# `stencil --format json`) before timing starts; paths are relative to the
# checkout root, which is the benchmark's working directory.
STENCIL_DIR = ".perfbench_work/stencils"
# outputs of a run's first round, kept for the independent checks
OUTPUT_DIR = ".perfbench_work/outputs"
STENCIL_FILE_KINDS = ("central-first", "central-second", "half-point-first",
                      "one-sided-first")
STENCIL_FILE_NS = (2, 3, 4)

SMOOTH_FNS = ("sin:omega=1", "sin:omega=2,phase=0.5", "poly:1,-0.5,0.25,0.125",
              "poly:0,2,-1")
ENVELOPE_FNS = ("altpoly:1,0.25", "altpoly:2,-0.5,0.01")
FORMATS = ("csv", "json")
CENTRAL = ("central-first", "central-second")
KINDS = ("central-first", "central-second", "half-point-first",
         "one-sided-first", "one-sided-nth")
EMBEDDINGS = ("half-sequence", "full-antisymmetric", "full-symmetric")
LIMITS = ("central-first", "central-second", "half-point-first")


def stencil_file(kind: str, n: int) -> str:
    return f"{STENCIL_DIR}/{kind}-{n}.json"


def _dense_taps(taps: int):
    """(--embedding, --M) pairs that all embed `taps` nonzero DFT taps: a full
    embedding mirrors each tap, so it keeps half as many sequence terms."""
    return tuple(
        ("--embedding", mode, "--M", str(taps if mode == "half-sequence" else taps // 2))
        for mode in EMBEDDINGS
    )


@dataclass(frozen=True)
class Slot:
    """One request of a round. `argv` tokens of the form "{name}" are
    replaced by a value from `choices[name]`; a value that is a tuple
    expands to several tokens. Parameters named in `deal` are dealt from
    `choices[name]` across all slots of the same `group` (the multiset is
    fixed, only the assignment is seeded); the others are drawn uniformly."""

    argv: tuple[str, ...]
    choices: dict = field(default_factory=dict)
    group: str = ""
    deal: tuple[str, ...] = ()


def _slot(template: str, group: str = "", deal=(), **choices) -> Slot:
    return Slot(tuple(template.split()), choices, group, tuple(deal))


def _repeat(count: int, slot: Slot) -> list[Slot]:
    return [slot] * count


# Nominal seconds of one round on the reference machine (2-core Xeon,
# Python 3.11, numpy 2.4); a run does round(seconds / nominal) rounds, so
# the amount of work per run is fixed for a given --seconds.
ROUND_SECONDS = {"exact-weights": 3.6, "spectra": 4.6, "signals": 3.4}

# Each round is built around a *plateau*: a block of same-cost requests
# whose latency sits in the middle of the round, so latency_p50_s reads one
# kind of request and not the gap between two. Below and above it sit as
# many cheaper as dearer requests; the dearest slots repeat often enough
# that latency_tail_s (the 11th-slowest request of a run) falls inside one
# group of them. Comments name the plateau and the tail group.
WORKLOADS: dict[str, list[Slot]] = {
    # plateau: central stencils at n = 28 (the Gauss-Jordan solve);
    # tail: verify --max-n 16 (weights and oracle)
    "exact-weights": [
        *_repeat(4, _slot("stencil --kind {kind} --n {n} --format {fmt}",
                          kind=("half-point-first", "one-sided-first", "one-sided-nth"),
                          n=tuple(str(n) for n in range(12, 49)), fmt=FORMATS)),
        *_repeat(2, _slot("stencil --kind {kind} --n {n} --format {fmt}",
                          kind=CENTRAL, n=tuple(str(n) for n in range(12, 17)),
                          fmt=FORMATS)),
        _slot("verify --max-n 8 --format {fmt}", fmt=("text", "json")),
        *_repeat(5, _slot("stencil --kind {kind} --n 28 --format {fmt}",
                          kind=CENTRAL, fmt=FORMATS)),
        *[_slot(f"stencil --kind {{kind}} --n {n} --format {{fmt}}",
                kind=CENTRAL, fmt=FORMATS) for n in (32, 36)],
        _slot("verify --max-n 12 --format {fmt}", fmt=("text", "json")),
        *_repeat(2, _slot("stencil --kind {kind} --n 48 --format {fmt}",
                          group="n48", deal=("kind",), kind=CENTRAL, fmt=FORMATS)),
        *_repeat(2, _slot("verify --max-n 16 --format {fmt}", fmt=("text", "json"))),
    ],
    # plateau: sparse stencil DFTs at N = 6000 (per-call set-up and per-row
    # reference values); tail: the dense N = 8000 limit-sequence DFTs
    "spectra": [
        *_repeat(4, _slot("spectrum --kind {kind} --n {n} --N 2000 --embedding {emb} "
                          "--part {part} --format {fmt}",
                          group="sparse2000", deal=("fmt",), kind=KINDS,
                          n=tuple(str(n) for n in range(1, 13)), emb=EMBEDDINGS,
                          part=("im", "re"), fmt=FORMATS)),
        *_repeat(2, _slot("spectrum --kind {kind} --n {n} --N 4000 --embedding {emb} "
                          "--part {part} --format csv",
                          kind=KINDS, n=tuple(str(n) for n in range(1, 13)),
                          emb=EMBEDDINGS, part=("im", "re"))),
        *_repeat(8, _slot("spectrum --kind {kind} --n {n} --N 6000 --embedding {emb} "
                          "--part {part} --format csv",
                          kind=KINDS, n=tuple(str(n) for n in range(1, 13)),
                          emb=EMBEDDINGS, part=("im", "re"))),
        _slot("spectrum --kind {kind} --n {n} --N 8000 --embedding {emb} "
              "--part {part} --format json",
              kind=KINDS, n=tuple(str(n) for n in range(1, 13)), emb=EMBEDDINGS,
              part=("im", "re")),
        _slot("figure 2a --n {ns} --N 6000 --format {fmt}", group="finite",
              deal=("fmt",), ns=("1,10", "3,12"), fmt=FORMATS),
        _slot("figure {id} --n {ns} --N 6000 --format {fmt}", group="finite",
              deal=("fmt",), id=("3a", "3b"), ns=("1,3,5", "2,4,6"), fmt=FORMATS),
        _slot("spectrum --limit {limit} {emb} --N 4000 --part {part} --format {fmt}",
              limit=LIMITS, emb=_dense_taps(998), part=("im", "re"), fmt=FORMATS),
        _slot("figure {id} --N 4000 --h {h} --format json",
              id=("1a", "1b"), h=("0.5", "1", "2")),
        *_repeat(2, _slot("spectrum --limit {limit} {emb} --N 8000 --part {part} --format {fmt}",
                          group="dense", deal=("fmt",), limit=LIMITS,
                          emb=_dense_taps(1998), part=("im", "re"), fmt=FORMATS)),
        # the largest fold: its two N x (N/2+1) tables set the peak RSS
        _slot("figure {id} --N 8000 --h {h} --format csv",
              id=("1a", "1b"), h=("0.5", "1", "2")),
    ],
    # plateau: exact-rational half-point differentiation at n = 3 (one
    # half_point(n) build per index); tail: the 50001-point diff requests
    "signals": [
        *_repeat(4, _slot("diff --stencil-file {file} --fn {fn} --h 0.001 "
                          "--points 10001 --format {fmt}",
                          file=tuple(stencil_file(k, n) for k in STENCIL_FILE_KINDS
                                     for n in STENCIL_FILE_NS),
                          fn=SMOOTH_FNS, fmt=FORMATS)),
        *_repeat(2, _slot("diff --fn {fn} --h 0.001 --kind half-point-first --n {n} "
                          "--points 2001 --format {fmt}",
                          group="hp", deal=("n",), fn=SMOOTH_FNS, n=("1", "2"),
                          fmt=FORMATS)),
        *_repeat(4, _slot("diff --fn {fn} --h 0.001 --kind half-point-first --n 3 "
                          "--points 2001 --format {fmt}", fn=SMOOTH_FNS, fmt=FORMATS)),
        _slot("figure 2b --fn {fn} --n 3 --h {h} --points 2001 --format {fmt}",
              fn=ENVELOPE_FNS, h=("0.5", "1"), fmt=FORMATS),
        _slot("diff --fn {fn} --h 0.001 --kind half-point-first --n 4 --points 2001 "
              "--format {fmt}", fn=SMOOTH_FNS, fmt=FORMATS),
        *_repeat(2, _slot("diff --fn {fn} --h 0.001 --n {n} --order {order} "
                          "--points 20001 --format json",
                          group="mid", deal=("order",), fn=SMOOTH_FNS,
                          n=tuple(str(n) for n in range(1, 7)), order=("1", "2"))),
        *_repeat(2, _slot("diff --fn {fn} --h 0.001 --n {n} --order {order} "
                          "--points 50001 --format csv",
                          group="big", deal=("order",), fn=SMOOTH_FNS,
                          n=tuple(str(n) for n in range(1, 7)), order=("1", "2"))),
    ],
}


def _expand(slot: Slot, values: dict) -> list[str]:
    argv = []
    for token in slot.argv:
        if token.startswith("{") and token.endswith("}"):
            value = values[token[1:-1]]
            argv.extend(value if isinstance(value, tuple) else (value,))
        else:
            argv.append(token)
    return argv


def make_round(workload: str, seed: int) -> list[list[str]]:
    """The round a seed draws: one argv per slot (the client shuffles the
    order of every round it plays)."""
    slots = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    dealt = {}
    for slot in slots:
        for name in slot.deal:
            if (slot.group, name) not in dealt:
                size = sum(1 for s in slots if s.group == slot.group)
                options = slot.choices[name]
                pool = [options[i % len(options)] for i in range(size)]
                rng.shuffle(pool)
                dealt[(slot.group, name)] = iter(pool)
    round_ = []
    for slot in slots:
        values = {}
        for name, options in slot.choices.items():
            values[name] = (next(dealt[(slot.group, name)]) if name in slot.deal
                            else rng.choice(options))
        round_.append(_expand(slot, values))
    return round_


def all_argvs(workload: str) -> list[list[str]]:
    """Every argv the workload's slots can produce, for any seed."""
    seen = {}
    for slot in WORKLOADS[workload]:
        names = list(slot.choices)
        for combo in itertools.product(*(slot.choices[n] for n in names)):
            argv = _expand(slot, dict(zip(names, combo)))
            seen.setdefault(" ".join(argv), argv)
    return list(seen.values())


def stencil_file_argvs() -> list[tuple[str, list[str]]]:
    """(path, argv) pairs that produce the stencil files `signals` reads."""
    return [
        (stencil_file(k, n), ["stencil", "--kind", k, "--n", str(n), "--format", "json"])
        for k in STENCIL_FILE_KINDS for n in STENCIL_FILE_NS
    ]
