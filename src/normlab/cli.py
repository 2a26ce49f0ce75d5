"""Campaign runner: seeded inequality-verification suites from the shell.

Subcommands:

* ``verify``: run one suite (heinz, agm, cpr, zhan, cor23, cor24, t2,
  finalcor, characterizations, dk, conjecture) over seeded random
  instances, writing one JSON record per check to ``--out`` plus a CSV
  summary next to it.
* ``conjecture``: shorthand for ``verify --suite conjecture``.
* ``dk-probe``: ratio-minimization probe for an explicit spectrum
  (``--eigs 1,2,-3``).
* ``report``: re-summarize an existing JSONL file.

``--config file.json`` is read as the flags it stands for, placed before
argv's own flags so that one parse converts both and argv wins.

The theorem suites sample, decompose and check their instances in chunks
of THEOREM_CHUNK, each chunk as one stack, and write the records one
instance at a time would; a record's ``wall_time`` is its chunk's check
time split evenly over the chunk's records.  Their records are blocks
of arrays (``_Block``: a run of instances' points and one ChainStack per
norm and form); the JSONL writer encodes a block's fixed fields once and
formats only each record's numbers, every line still
``json.dumps(record, sort_keys=True)``, and the summary folds each run
of one point's records at once.  The probe suites and ``report`` keep
dict records.  ``verify`` streams: each block or dict record goes to
``<out>.tmp`` and into the summary groups as soon as the runner yields
it, so memory depends on one chunk and the number of summary groups, not
on --count.  The temp file is renamed onto ``<out>`` when the campaign
finishes and removed when it fails, so a failed run writes no JSONL and
leaves an earlier ``<out>`` as it was.  ``report`` decodes, checks and
folds each line as it reads it.

Everything emitted is a deterministic function of (config, seed) except
wall-time fields, which ``--no-timing`` zeroes; reruns with the same
config and seed are then byte-identical.  Exit status: 0 on success (for
probe suites, findings do not fail the run), 1 when a theorem suite has a
failing record, 2 for usage or configuration errors (a config-file value
of the wrong type too), 3 for a numerical failure (an input the kernels
reject, such as a matrix that is singular or not positive definite in
floating point, a norm, weighted matrix, chain member or finalcor p-th
power beyond the float range, or a finalcor p-th power of a nonzero norm
below it), 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import classes, conjecture, cpr, heinz, matcore
from .chains import DEFAULT_TOL
from .errors import ConfigInvalid, IoFailure, NormlabError, UsageError
from .norms import NormKind, parse_norms

__all__ = ["CampaignConfig", "parse_args", "run", "main"]

# Probe suites report findings; only theorem suites can fail the run.
PROBE_SUITES = frozenset({"dk", "conjecture"})

# The suite-dependent defaults of --r and --count; the others are in _FLAGS.
DEFAULT_ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
DEFAULT_R = (0.5, 0.75, 1.0, 1.25, 1.5)
DEFAULT_COUNT = 100
# The ratio probe runs hundreds of SVD iterations per start, so its
# default instance count is kept small.
DEFAULT_DK_COUNT = 10


@dataclass(frozen=True)
class CampaignConfig:
    command: str
    suite: str | None
    dim: int
    count: int
    seed: int
    norms: tuple[str, ...]
    tol: float
    cond: float
    t_values: tuple[float, ...]
    r_values: tuple[float, ...]
    k_values: tuple[float, ...]
    p_values: tuple[float, ...]
    n: int
    eigs: tuple[float, ...] | None
    starts: int
    iters: int
    out: str
    no_timing: bool


# Every JSON line and summary params key; json.dumps builds an encoder per
# call.
_JSON = json.JSONEncoder(sort_keys=True)

# A theorem suite runs THEOREM_CHUNK (point, instance) pairs at a time, in
# record order: one sampler call per matrix slot and one check per chunk.
# Bounds the campaign's working memory at any --count.
THEOREM_CHUNK = 128


# A sampler draws one matrix slot of a chunk's instances as an (m, n, n)
# stack: sampler(config, points, streams), one point and one stream of the
# matcore.Streams per instance.
def _posdef(config, points, streams):
    return matcore.random_posdef(config.dim, config.cond, streams)


def _selfadjoint(config, points, streams):
    return matcore.random_selfadjoint_invertible(config.dim, config.cond, streams)


def _invertible(config, points, streams):
    return matcore.random_invertible(config.dim, config.cond, streams)


def _general(config, points, streams):
    return matcore.ginibre(config.dim, rng=streams)


def _probe(config, points, streams):
    return matcore.random_probe_matrix(config.dim, streams)


def _form_class(config, points, streams):
    # One sampler call per operator family, scattered back by instance.
    families = np.array([classes.FORMS[point["form"]].family for point in points])
    mats = np.empty((len(points), config.dim, config.dim), dtype=complex)
    for family in dict.fromkeys(families.tolist()):
        rows = np.flatnonzero(families == family)
        mats[rows] = classes.sample_for_form(points[rows[0]]["form"], config.dim, streams[rows], config.cond)
    return mats


def _single_point(config):
    return [{}]


def _column(points, key):
    return np.array([point[key] for point in points])


@dataclass(frozen=True)
class _Block:
    """The records of one check over consecutive instances of a chunk,
    held as arrays: columns lists (params, norm label, ChainStack over the
    block's instances) in an instance's record order, and each record's
    params extend its instance's point.  Record start + i * len(columns) + c
    is column c of instance i; wall is every record's wall time."""

    suite: str
    start: int
    wall: float
    points: list
    columns: list

    @property
    def size(self) -> int:
        return len(self.points) * len(self.columns)

    def runs(self) -> list:
        """(first, stop, point) of each run of instances at one point."""
        runs, first = [], 0
        for i, point in enumerate(self.points[1:], 1):
            if point is not self.points[first]:
                runs.append((first, i, self.points[first]))
                first = i
        return runs + [(first, len(self.points), self.points[first])]

    def passed(self) -> bool:
        return all(bool(stack.link_pass.all()) for _, _, stack in self.columns)


def _norm_major(*checks, **forms):
    """Chunk check over forms that each take every norm at once:
    fn(config, points, kinds, *stacks) returns one ChainStack per norm.
    Unnamed checks add nothing to a point's params; named forms add
    {"form": name}.  Each runs once, and an instance's records come norms
    outermost, then forms."""
    entries = [({}, fn) for fn in checks] + [({"form": name}, fn) for name, fn in forms.items()]

    def check(config, points, kinds, *mats):
        evaluated = [(form, fn(config, points, kinds, *mats)) for form, fn in entries]
        return [(points, [(form, kind.label, stacks[j]) for j, kind in enumerate(kinds) for form, stacks in evaluated])]

    return check


def _finalcor(config, points, kinds, s, x):
    # The max form is an operator-norm bound; each p gives a Schatten row.
    op_stack, *power_stacks = cpr.final_cor_check(s, x, config.p_values, tol=config.tol)
    columns = [({"form": "max"}, "op", op_stack)]
    columns += [({"p": p}, NormKind.schatten(p).label, stack) for p, stack in zip(config.p_values, power_stacks)]
    return [(points, columns)]


def _characterizations(config, points, kinds, s, x):
    # One check for the chunk; each run of one form is a block.  Equality
    # forms keep their own tolerance.
    forms = [point["form"] for point in points]
    tols = [None if classes.FORMS[form].relation == "eq" else config.tol for form in forms]
    return [
        (points[span], [({}, kind.label, stack) for kind, stack in zip(kinds, reports)])
        for span, reports in classes.characterization_check(s, x, forms, kinds, tol=tols)
    ]


def _theorem(points, samplers, check):
    """Record generator of a theorem suite, yielding record blocks.

    points(config) lists the parameter points; matrix slot j of instance i
    at point pi is drawn by samplers[j] from the stream
    Rng(seed, (pi, i, j)).  The (point, instance) pairs run THEOREM_CHUNK
    at a time in record order: the streams of every slot of the chunk are
    keyed in one matcore.substreams pass, each sampler draws its slot for
    the whole chunk, and check(config, points, kinds, *stacks) evaluates
    the chunk once, returning its records in record order as (points,
    columns) blocks of consecutive instances (see _Block).  The check's
    wall time is split evenly over the chunk's records.
    """

    def records(config):
        kinds = parse_norms(config.norms, config.dim)
        pairs = ((pi, point, i) for pi, point in enumerate(points(config)) for i in range(config.count))
        slots = len(samplers)
        while chunk := list(itertools.islice(pairs, THEOREM_CHUNK)):
            # Prefix-major, so slot j's streams are every slots-th one.
            streams = matcore.substreams(config.seed, [(pi, i) for pi, _, i in chunk], range(slots))
            chunk_points = [point for _, point, _ in chunk]
            mats = [sample(config, chunk_points, streams[j::slots]) for j, sample in enumerate(samplers)]
            t0 = time.perf_counter()
            blocks = check(config, chunk_points, kinds, *mats)
            wall = (time.perf_counter() - t0) / sum(len(pts) * len(columns) for pts, columns in blocks)
            for block_points, columns in blocks:
                yield _Block(config.suite, 0, wall, block_points, columns)

    return records


def _probe_record(norm_label, params, labels, values, margin, ok, wall, **extra) -> dict:
    """A probe finding, shaped like a one-link 'ge' chain record."""
    return {
        "norm": norm_label,
        "params": params,
        "labels": labels,
        "values": values,
        "margins": [margin],
        "relations": ["ge"],
        "link_pass": [ok],
        "pass": ok,
        "min_margin": margin,
        "wall_time": wall,
        **extra,
    }


def _dk_records(config):
    rng = matcore.Rng(config.seed)
    for pi, k in enumerate(config.k_values):
        for i in range(config.count):
            sub = rng.substream(pi).substream(i)
            if config.eigs is not None:
                s = np.diag(np.asarray(config.eigs, dtype=float)).astype(complex)
            else:
                s = matcore.random_selfadjoint_invertible(config.dim, config.cond, sub.substream(0))
            t0 = time.perf_counter()
            res = classes.dk_ratio_minimize(s, k, starts=config.starts, iters=config.iters, rng=sub.substream(1))
            wall = time.perf_counter() - t0
            bound = k + 2.0
            yield _probe_record(
                "op",
                {"k": k},
                ["best_ratio", "k+2"],
                [res.best_ratio, bound],
                res.best_ratio - bound,
                res.verdict != "violated",
                wall,
                verdict=res.verdict,
                spectral_ok=res.spectral_ok,
                eigenvalues=[float(v) for v in res.eigenvalues],
                starts_used=res.starts_used,
            )


def _conjecture_records(config):
    violations_path = config.out + ".violations.jsonl"
    try:
        open(violations_path, "w", encoding="utf-8").close()
    except OSError as exc:
        raise IoFailure(f"cannot write {violations_path}: {exc}") from None
    t0 = time.perf_counter()
    summaries = conjecture.conjecture_search(
        config.n, list(config.k_values), config.count, matcore.Rng(config.seed), violations_path=violations_path
    )
    # The search runs as one campaign; each row carries its total wall time.
    wall = time.perf_counter() - t0
    for summ in summaries:
        yield _probe_record(
            "-",
            {"k": summ.k, "n": config.n},
            ["min_eig"],
            [summ.min_eig_overall],
            summ.min_eig_overall,
            summ.violations == 0,
            wall,
            min_eig=summ.min_eig_overall,
            count=summ.accepted,
            pass_count=summ.accepted - summ.violations,
            fail_count=summ.violations,
            rejected=summ.rejected,
            violations=summ.violations,
            hist_counts=[int(c) for c in summ.hist_counts],
            hist_edges=[float(e) for e in summ.hist_edges],
        )


# Suite name -> record generator, in the order the CLI lists them.
_SUITES = {
    "heinz": _theorem(
        lambda c: [{"alpha": a} for a in c.r_values],
        (_posdef, _posdef, _probe),
        _norm_major(
            lambda c, pts, kinds, a, b, x: heinz.kittaneh_chain(a, b, x, _column(pts, "alpha"), kinds, tol=c.tol)
        ),
    ),
    "agm": _theorem(
        _single_point,
        (_general, _general, _probe),
        _norm_major(lambda c, pts, kinds, a, b, x: heinz.agm_check(a, b, x, kinds, tol=c.tol)),
    ),
    "cpr": _theorem(
        _single_point,
        (_selfadjoint, _selfadjoint, _probe, _invertible),
        _norm_major(
            cpr=lambda c, pts, kinds, s, t, x, g: cpr.cpr_check(s, x, kinds, tol=c.tol),
            two_sided=lambda c, pts, kinds, s, t, x, g: cpr.cpr_two_sided_check(s, t, x, kinds, tol=c.tol),
            star=lambda c, pts, kinds, s, t, x, g: cpr.cpr_star_check(g, x, kinds, tol=c.tol),
        ),
    ),
    "zhan": _theorem(
        lambda c: [{"t": t, "r": r} for t in c.t_values for r in c.r_values],
        (_posdef, _posdef, _probe),
        _norm_major(
            lambda c, pts, kinds, a, b, x: cpr.zhan_chain(
                a, b, x, cpr.ZhanParams(_column(pts, "t"), _column(pts, "r")), kinds, tol=c.tol
            )
        ),
    ),
    "cor23": _theorem(
        lambda c: [{"t": t} for t in c.t_values],
        (_general, _general, _probe),
        _norm_major(lambda c, pts, kinds, a, b, x: cpr.cor23_check(a, b, x, _column(pts, "t"), kinds, tol=c.tol)),
    ),
    "cor24": _theorem(
        lambda c: [{"t": t} for t in c.t_values],
        (_posdef, _posdef, _probe),
        _norm_major(lambda c, pts, kinds, a, b, x: cpr.cor24_check(a, b, x, _column(pts, "t"), kinds, tol=c.tol)),
    ),
    "t2": _theorem(
        _single_point,
        (_invertible, _probe, _probe),
        _norm_major(
            mos1=lambda c, pts, kinds, s, x, y: cpr.mos1_check(s, x, y, kinds, tol=c.tol),
            mos2=lambda c, pts, kinds, s, x, y: cpr.mos2_check(s, x, y, kinds, tol=c.tol),
        ),
    ),
    "finalcor": _theorem(_single_point, (_invertible, _probe), _finalcor),
    "characterizations": _theorem(
        lambda c: [{"form": form_id} for form_id in classes.FORMS], (_form_class, _probe), _characterizations
    ),
    "dk": _dk_records,
    "conjecture": _conjecture_records,
}
SUITES = tuple(_SUITES)

_ALL = ("verify", "conjecture", "dk-probe")
# Flag -> (subcommands that take it, type, default, help); type bool is a
# switch, and list a comma list, split after the parse.  Every flag except
# --config is also a config-file key, read as the flag it stands for.
_FLAGS = {
    "suite": (("verify",), str, None, "suite name: " + ", ".join(SUITES)),
    "dim": (("verify",), int, 3, "matrix dimension, 2..12"),
    "count": (_ALL, int, None, f"instances per parameter point (default {DEFAULT_COUNT}, {DEFAULT_DK_COUNT} for dk)"),
    "seed": (_ALL, int, 0, "campaign seed"),
    "norms": (("verify",), list, "op,tr,fro", "comma list of norm selectors"),
    "tol": (("verify",), float, DEFAULT_TOL, "relative link tolerance"),
    "cond": (("verify",), float, 100.0, "condition bound for sampled matrices, 1..1e12"),
    "t": (("verify",), list, "-1,0,0.5,1,2", "comma list of t values; use --t=-1,0 for negatives"),
    "r": (("verify",), list, None, "comma list: Heinz alphas (heinz) or exponents r (zhan)"),
    "k": (_ALL, list, "0,0.5,1,2", "comma list of shift values k"),
    "p": (("verify",), list, "1,2,3", "comma list of Schatten exponents p"),
    "n": (("verify", "conjecture"), int, 3, "spectrum size for the conjecture suite"),
    "eigs": (("verify", "dk-probe"), list, None, "explicit spectrum, e.g. 1,2,-3"),
    "starts": (("verify", "dk-probe"), int, 64, "random starts for the ratio probe"),
    "iters": (("verify", "dk-probe"), int, 500, "iterations per start"),
    "out": (_ALL + ("report",), str, "results.jsonl", "output JSONL path"),
    "config": (_ALL, str, None, "JSON config file, read as the flags it stands for; command-line flags win"),
    "no_timing": (_ALL, bool, False, "zero wall-time fields for byte-stable output"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="normlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    for command, help_text in (
        ("verify", "run a verification suite"),
        ("conjecture", "counterexample search for the positivity conjecture"),
        ("dk-probe", "ratio probe for an explicit spectrum"),
        ("report", "re-summarize an existing JSONL file"),
    ):
        p = sub.add_parser(command, help=help_text)
        for name, (commands, type_, default, text) in _FLAGS.items():
            if command in commands:
                kind = {"action": "store_true"} if type_ is bool else {"type": str if type_ is list else type_}
                if default is not None and type_ is not bool:
                    text += " (default %(default)s)"
                p.add_argument("--" + name.replace("_", "-"), default=default, help=text, **kind)
    return parser


def _config_flags(path: str, command: str) -> list[str]:
    """The command-line flags a config file stands for, in file order.

    Each key becomes --name=value, a list joined with commas (comma-list
    flags only).  A switch's true is the bare flag; its false, and null for
    any key, leave the flag out.  Keys the command does not take are
    skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigInvalid("config file must hold a single JSON object")
    unknown = sorted(key for key in data if key not in _FLAGS or key == "config")
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in data.items():
        commands, type_ = _FLAGS[key][:2]
        if command not in commands or value is None or (type_ is bool and value is False):
            continue
        flag = "--" + key.replace("_", "-")
        if type_ is bool and value is True:
            flags.append(flag)
            continue
        items = value if type_ is list and isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
            kind = "a string, a number or a list of them" if type_ is list else "a string or a number"
            raise ConfigInvalid(f"config file {path}: {key} takes {kind}, got {json.dumps(value)}")
        flags.append(flag + "=" + ",".join(v if isinstance(v, str) else repr(v) for v in items))
    return flags


def _split(value: str, flag: str, convert) -> tuple:
    tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
    if not tokens:
        raise ConfigInvalid(f"{flag} must not be empty")
    try:
        return tuple(map(convert, tokens))
    except ValueError:
        raise ConfigInvalid(f"{flag} expects comma-separated reals, got {value!r}") from None


def parse_args(argv=None) -> CampaignConfig:
    """Parse argv into a validated CampaignConfig.  A --config file's flags
    go after the subcommand and before argv's own, so argv wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        path, at = ns.config, argv.index(ns.command) + 1
        try:
            ns = parser.parse_args([*argv[:at], *_config_flags(path, ns.command), *argv[at:]])
        except UsageError as exc:
            # argv alone parsed, so the file's flags raised it.
            raise ConfigInvalid(f"config file {path}: {exc}") from None
    # A subcommand takes a subset of the flags; the rest keep their defaults.
    v = {name: row[2] for name, row in _FLAGS.items()} | vars(ns)
    suite = {"conjecture": "conjecture", "dk-probe": "dk"}.get(ns.command, v["suite"])
    config = CampaignConfig(
        command=ns.command,
        suite=suite,
        count=v["count"] if v["count"] is not None else DEFAULT_DK_COUNT if suite == "dk" else DEFAULT_COUNT,
        norms=_split(v["norms"], "--norms", str),
        t_values=_split(v["t"], "--t", float),
        r_values=(
            _split(v["r"], "--r", float) if v["r"] is not None else DEFAULT_ALPHAS if suite == "heinz" else DEFAULT_R
        ),
        k_values=_split(v["k"], "--k", float),
        p_values=_split(v["p"], "--p", float),
        eigs=None if v["eigs"] is None else _split(v["eigs"], "--eigs", float),
        # The other flags are fields as parsed.
        **{name: v[name] for name in ("dim", "seed", "tol", "cond", "n", "starts", "iters", "out", "no_timing")},
    )
    _validate(config)
    return config


def _validate(config: CampaignConfig) -> None:
    if not config.out:
        raise ConfigInvalid("--out must not be empty")
    if config.command == "report":
        return
    if config.suite is None:
        raise UsageError("missing --suite")
    if config.suite not in SUITES:
        raise ConfigInvalid(f"unknown suite {config.suite!r}; expected one of {', '.join(SUITES)}")
    for flag, values in (
        ("--tol", (config.tol,)),
        ("--cond", (config.cond,)),
        ("--t", config.t_values),
        ("--r", config.r_values),
        ("--k", config.k_values),
        ("--p", config.p_values),
        ("--eigs", config.eigs or ()),
    ):
        matcore.require_within(values, -np.inf, np.inf, ConfigInvalid, f"{flag} values must be finite")
    if not 2 <= config.dim <= 12:
        raise ConfigInvalid(f"--dim must be in [2, 12], got {config.dim}")
    if config.count < 1:
        raise ConfigInvalid("--count must be >= 1")
    if config.seed < 0:
        raise ConfigInvalid(f"--seed must be >= 0, got {config.seed}")
    if config.tol <= 0.0:
        raise ConfigInvalid("--tol must be positive")
    # Sampled matrices of condition number beyond 1 / POSDEF_RTOL are
    # rejected by the kernels, which would abort the campaign.
    if not 1.0 <= config.cond <= 1.0 / matcore.POSDEF_RTOL:
        raise ConfigInvalid(f"--cond must be in [1, {1.0 / matcore.POSDEF_RTOL:g}], got {config.cond}")
    try:
        parse_norms(config.norms, config.dim)
        _DOMAINS.get(config.suite, lambda c: None)(config)
    except ValueError as exc:  # InvalidParams, or a selector's number that does not parse
        raise ConfigInvalid(str(exc)) from None


def _dk_domain(config):
    classes.require_probe_k(config.k_values)
    if config.starts < 1 or config.iters < 1:
        raise ConfigInvalid("--starts and --iters must be >= 1")
    if config.eigs is not None:
        matcore.as_spectrum(config.eigs)
    elif config.command == "dk-probe":
        raise UsageError("dk-probe requires --eigs")


def _conjecture_domain(config):
    if not 2 <= config.n <= 12:
        raise ConfigInvalid(f"--n must be in [2, 12], got {config.n}")
    conjecture.require_k(config.k_values)


# Suite -> checks of its theorem parameters by their owners, and the probes' run policy.
_DOMAINS = {
    "heinz": lambda c: heinz.require_alpha(c.r_values),
    "zhan": lambda c: cpr.ZhanParams(c.t_values, c.r_values),
    "cor23": lambda c: cpr.require_t(c.t_values),
    "cor24": lambda c: cpr.require_t(c.t_values),
    "finalcor": lambda c: [NormKind.schatten(p) for p in c.p_values],
    "dk": _dk_domain,
    "conjecture": _conjecture_domain,
}


def _collect_records(config: CampaignConfig, fh) -> tuple[dict, bool]:
    """Run the config's suite and stream its records: each dict record
    (probe suites) or record block (theorem suites) is numbered in the
    order produced, written to fh and folded into the summary groups as
    soon as the runner yields it.  Returns the groups and whether every
    record passed."""
    groups, count, passed = {}, 0, True
    for item in _SUITES[config.suite](config):
        if isinstance(item, _Block):
            item = dataclasses.replace(item, start=count, wall=0.0 if config.no_timing else item.wall)
            count += item.size
            _fold_block(groups, item)
            passed = passed and item.passed()
        else:
            item.update(suite=config.suite, instance=count)
            if config.no_timing:
                item["wall_time"] = 0.0
            count += 1
            _fold_record(groups, item)
            passed = passed and bool(item["pass"])
        _write_jsonl(fh, [item])
    return groups, passed


@contextlib.contextmanager
def _replacing(path: str):
    """A text file that becomes path: it is written as path + ".tmp",
    renamed onto path when the with block ends and removed when the block
    raises, so a failed run leaves path as it was.  An OSError on the file
    is an IoFailure naming path, as writing path itself would name it."""
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        if exc.filename is not None:
            exc = OSError(exc.errno, exc.strerror, path)
        raise IoFailure(f"cannot write {path}: {exc}") from None


def _block_text(block: _Block) -> str:
    """The JSONL lines of a block's records, each json.dumps(record,
    sort_keys=True) of the dict record: the fixed fields are encoded once
    per column (the params once per run of a point), and each record
    formats only its own numbers and verdicts."""
    width, runs = len(block.columns), block.runs()
    lines = [""] * block.size
    tail = ', "wall_time": ' + _JSON.encode(block.wall) + "}\n"
    for c, (params, label, stack) in enumerate(block.columns):
        links = len(stack.relations)
        codes = (stack.link_pass @ (1 << np.arange(links))).tolist()
        link_pass = {code: str([bool(code >> j & 1) for j in range(links)]).lower() for code in set(codes)}
        # A list of finite floats prints as its JSON; json spells the
        # non-finite ones NaN, Infinity and -Infinity.
        finite = bool(np.isfinite(stack.values).all() and np.isfinite(stack.margins).all())
        floats, number = (str, float.__repr__) if finite else (_JSON.encode, _JSON.encode)
        values = list(map(floats, stack.values.tolist()))
        margins = list(map(floats, stack.margins.tolist()))
        # Python's min of each row, as the dict records took it (NaN and
        # -0.0 included): with one link, the row's only margin.
        if links == 1:
            mins = [m[1:-1] for m in margins]
        else:
            mins = list(map(number, map(min, stack.margins.tolist())))
        head = ', "labels": ' + _JSON.encode(list(stack.labels)) + ', "link_pass": '
        rest = ', "relations": ' + _JSON.encode(list(stack.relations))
        rest += ', "suite": ' + _JSON.encode(block.suite) + ', "values": '
        for first, stop, point in runs:
            mid = ', "norm": ' + _JSON.encode(label) + ', "params": ' + _JSON.encode({**point, **params})
            verdict = {code: mid + f', "pass": {str(code == 2**links - 1).lower()}' + rest for code in link_pass}
            numbers = range(block.start + first * width + c, block.start + stop * width, width)
            lines[first * width + c : stop * width : width] = [
                f'{{"instance": {n}{head}{link_pass[code]}, "margins": {m}, "min_margin": {mm}{verdict[code]}{v}{tail}'
                for n, code, m, mm, v in zip(
                    numbers, codes[first:stop], margins[first:stop], mins[first:stop], values[first:stop]
                )
            ]
    return "".join(lines)


def _write_jsonl(fh, records) -> None:
    """Write dict records and record blocks to the text file fh, one JSON
    line per record."""
    fh.writelines(_block_text(item) if isinstance(item, _Block) else _JSON.encode(item) + "\n" for item in records)


def _is_number(value) -> bool:
    # Not a bool, nor an integer beyond the float range, which float() refuses.
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _bad_field(record: dict) -> str | None:
    """What is wrong with the first field the summary reads that it cannot
    use, or None."""
    for key in ("count", "pass_count", "fail_count", "instance"):
        if key in record and type(record[key]) is not int:
            return f"{key!r} has the wrong type"
    for key in ("count", "pass_count", "fail_count"):
        if record.get(key, 0) < 0:
            return f"{key!r} is negative"
    for key in ("min_margin", "min_eig"):
        if record.get(key) is not None and not _is_number(record[key]):
            return f"{key!r} has the wrong type"
    margins = record.get("margins", [])
    if not (isinstance(margins, list) and all(map(_is_number, margins))):
        return "'margins' has the wrong type"
    return None


# Decodes one JSONL line; json.loads builds nothing more per call, but
# checks the line again.
_DECODE = json.JSONDecoder().raw_decode


def _records(path: str):
    """Each record of a JSONL file, decoded and checked as it is read."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        record, end = _DECODE(line)
                    except ValueError:
                        end = None
                    if end != len(line):
                        # Raises the error json.loads gives for the line.
                        record = json.loads(line)
                    if not isinstance(record, dict):
                        raise IoFailure(f"{path} holds a line that is not a JSON object: {line[:40]!r}")
                    bad = _bad_field(record)
                    if bad is not None:
                        raise IoFailure(f"{path} holds a record whose {bad}: {line[:40]!r}")
                    yield record
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # A JSONDecodeError, or an integer literal past Python's digit limit.
        raise IoFailure(f"{path} is not valid JSONL: {exc}") from None


def _instance(record: dict) -> int:
    return record.get("instance", 0)


def _read_jsonl(path: str) -> dict:
    """The summary groups of a JSONL file's records, folded in instance
    order as each is read.  A file whose instance numbers ever decrease is
    read again and folded sorted by instance (stably, a record without one
    at 0): once a margin is NaN, the fold's min depends on the order."""
    groups, last = {}, float("-inf")
    with contextlib.closing(_records(path)) as records:
        for record in records:
            if _instance(record) < last:
                break
            last = _instance(record)
            _fold_record(groups, record)
        else:
            return groups
    groups = {}
    for record in sorted(_records(path), key=_instance):
        _fold_record(groups, record)
    return groups


def _fold_block(groups: dict, block: _Block) -> None:
    """Fold each (point, column) run of a block into its summary group."""
    runs = block.runs()
    firsts = [first for first, _, _ in runs]
    columns = []
    for params, label, stack in block.columns:
        passed = np.add.reduceat(stack.link_pass.all(axis=-1), firsts, dtype=int).tolist()
        columns.append((label, params, passed, list(map(min, stack.margins.tolist()))))
    for r, (first, stop, point) in enumerate(runs):
        for label, params, passed, mins in columns:
            grp = groups.setdefault((block.suite, label, _JSON.encode({**point, **params})), [0, 0, 0, None, None])
            grp[0] += stop - first
            grp[1] += passed[r]
            grp[2] += stop - first - passed[r]
            # The fold of the dict loop: Python's min over the row minima.
            run = mins[first:stop]
            grp[3] = min(run if grp[3] is None else [grp[3], *run])


def _fold_record(groups: dict, r: dict) -> None:
    """Fold a dict record into its summary group."""
    grp = groups.setdefault((str(r.get("suite", "-")), str(r.get("norm", "-")), _JSON.encode(r.get("params", {}))),
                            [0, 0, 0, None, None])
    grp[0] += r.get("count", 1)
    grp[1] += r.get("pass_count", 1 if r.get("pass") else 0)
    grp[2] += r.get("fail_count", 0 if r.get("pass") else 1)
    mm = r.get("min_margin")
    if mm is None and r.get("margins"):
        mm = min(r["margins"])
    if mm is not None:
        grp[3] = mm if grp[3] is None else min(grp[3], mm)
    me = r.get("min_eig")
    if me is not None:
        grp[4] = me if grp[4] is None else min(grp[4], me)


def _write_summary(path: str, groups: dict) -> None:
    """Write the summary CSV: one row per group (count, pass, fail,
    min_margin, min_eig), in order of first appearance."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["suite", "norm", "params", "count", "pass", "fail", "min_margin", "min_eig"])
            writer.writerows(
                [*key, *g[:3], *("" if v is None else repr(float(v)) for v in g[3:])] for key, g in groups.items()
            )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def run(config: CampaignConfig) -> int:
    """Execute a parsed config; returns the process exit status."""
    _validate(config)
    if config.command == "report":
        _write_summary(config.out + ".summary.csv", _read_jsonl(config.out))
        return 0
    with _replacing(config.out) as fh:
        groups, passed = _collect_records(config, fh)
    _write_summary(config.out + ".summary.csv", groups)
    return 0 if passed or config.suite in PROBE_SUITES else 1


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigInvalid as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except IoFailure as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 4
    except NormlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
