"""The benchmark's workloads: which campaigns each one runs, and at what size.

Every campaign passes its parameter grids explicitly, so a change of a CLI
default cannot silently change what a workload measures, and the instance
and record counts below follow from the arguments alone.

An instance is one (parameter point, index) draw evaluated on all its norms
and forms; for the conjecture it is one accepted spectrum, for dk one probe.

The full size keeps one campaign list near 0.15-0.5 s on one 2.1 GHz Xeon
vCPU, so a run of the benchmark repeats it dozens of times: on a shared
host the CPU slows by up to 1.8x for stretches of seconds, and only many
short repetitions leave some that run unslowed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

NORMS = ("op", "tr", "fro")
ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
R_GRID = (0.5, 0.75, 1.0, 1.25, 1.5)
P_GRID = (1.0, 2.0, 3.0)
CONJ_K = (0.0, 0.5, 1.0, 2.0)
# normlab.classes.FORMS holds fourteen characterization forms.
N_FORMS = 14

FULL = "full"
MINIMAL = "minimal"
SIZES = (FULL, MINIMAL)


@dataclass(frozen=True)
class Campaign:
    """One `normlab` invocation.

    ``out`` is the JSONL file the campaign writes (relative to the output
    directory) or reads back (for ``report``).  ``theorem`` campaigns fail
    the run when a record has ``pass: false``; probe campaigns report
    findings.
    """

    argv: tuple[str, ...]
    out: str
    instances: int
    records: int
    theorem: bool


# Workload name -> why it is in the benchmark (also the `why` of BENCHMARK.json).
WORKLOADS = {
    "chain-quadrature": (
        "heinz and zhan refinement chains: quadrature and pair-basis SVDs, no "
        "inverses or explicit products"
    ),
    "explicit-sandwich": (
        "seven explicit-product suites plus report read-back: unbatched SVDs, "
        "inverses, validation, JSONL/CSV output"
    ),
    "dk-descent": (
        "multiplier ratio probe: the projected-subgradient loop of 3x3 SVDs "
        "that no other workload runs"
    ),
    "conjecture-search": (
        "conjecture rejection sampling: one RNG stream and one eigvalsh per "
        "spectrum, streamed violation appends"
    ),
}


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _verify(suite: str, count: int, *extra: str, dim: int = 4) -> tuple[str, ...]:
    return ("verify", "--suite", suite, "--dim", str(dim), "--count", str(count), *extra)


def campaigns(workload: str, size: str, seed: int, outdir: str) -> list[Campaign]:
    """The campaign list of a workload; outputs go under ``outdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    full = size == FULL
    norms = ("--norms", ",".join(NORMS))
    common = ("--seed", str(seed), "--no-timing")
    out: list[Campaign] = []

    def add(name, argv, instances, records, theorem):
        path = os.path.join(outdir, name)
        out.append(Campaign(tuple(argv) + common + ("--out", path), name, instances, records, theorem))

    if workload == "chain-quadrature":
        count = 10 if full else 1
        add("heinz.jsonl", _verify("heinz", count, "--r", _csv(ALPHAS), *norms),
            len(ALPHAS) * count, len(ALPHAS) * count * len(NORMS), True)
        count = 2 if full else 1
        grid = len(T_GRID) * len(R_GRID)
        add("zhan.jsonl", _verify("zhan", count, "--t=" + _csv(T_GRID), "--r", _csv(R_GRID), *norms),
            grid * count, grid * count * len(NORMS), True)

    elif workload == "explicit-sandwich":
        count = 10 if full else 1
        # suite -> (parameter points, records per instance, extra flags)
        suites = {
            "agm": (1, len(NORMS), ()),
            "cpr": (1, 3 * len(NORMS), ()),
            "cor23": (len(T_GRID), len(NORMS), ("--t=" + _csv(T_GRID),)),
            "cor24": (len(T_GRID), len(NORMS), ("--t=" + _csv(T_GRID),)),
            "t2": (1, 2 * len(NORMS), ()),
            "finalcor": (1, 1 + len(P_GRID), ("--p", _csv(P_GRID))),
            "characterizations": (N_FORMS, len(NORMS), ()),
        }
        for suite, (points, per_instance, extra) in suites.items():
            name = suite + ".jsonl"
            add(name, _verify(suite, count, *extra, *norms), points * count, points * count * per_instance, True)
            out.append(Campaign(("report", "--out", os.path.join(outdir, name)), name, 0, 0, True))

    elif workload == "dk-descent":
        # The default 64 starts, so the probe keeps its batch width; fewer
        # iterations than the default 500 keep one probe short.
        count, starts, iters = (1, 64, 50) if full else (1, 1, 10)
        budget = ("--starts", str(starts), "--iters", str(iters))
        add("dk.jsonl", _verify("dk", count, "--k", "1", *budget, dim=3), count, count, False)

    else:  # conjecture-search
        count = 400 if full else 1
        add("conjecture.jsonl", ("conjecture", "--n", "4", "--k", _csv(CONJ_K), "--count", str(count)),
            len(CONJ_K) * count, len(CONJ_K), False)
    return out
