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

Everything emitted is a deterministic function of (config, seed) except
wall-time fields, which ``--no-timing`` zeroes; reruns with the same
config and seed are then byte-identical.  Exit status: 0 on success (for
probe suites, findings do not fail the run), 1 when a theorem suite has a
failing record, 2 for usage or configuration errors, 3 for a numerical
failure (an input the kernels reject, such as a matrix that is singular or
not positive definite in floating point), 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import classes, conjecture, cpr, heinz, matcore
from .errors import ConfigInvalid, IoFailure, NormlabError, UsageError
from .norms import NormKind

__all__ = ["CampaignConfig", "parse_args", "run", "main"]

# Probe suites report findings; only theorem suites can fail the run.
PROBE_SUITES = frozenset({"dk", "conjecture"})

DEFAULT_NORMS = ("op", "tr", "fro")
DEFAULT_ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
DEFAULT_T = (-1.0, 0.0, 0.5, 1.0, 2.0)
DEFAULT_R = (0.5, 0.75, 1.0, 1.25, 1.5)
DEFAULT_K = (0.0, 0.5, 1.0, 2.0)
DEFAULT_P = (1.0, 2.0, 3.0)
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


# A sampler draws one matrix slot of an instance: sampler(config, point, rng).
def _posdef(config, point, rng):
    return matcore.random_posdef(config.dim, config.cond, rng)


def _selfadjoint(config, point, rng):
    return matcore.random_selfadjoint_invertible(config.dim, config.cond, rng)


def _invertible(config, point, rng):
    return matcore.random_invertible(config.dim, config.cond, rng)


def _general(config, point, rng):
    return matcore.ginibre(config.dim, rng=rng)


def _probe(config, point, rng):
    return matcore.random_probe_matrix(config.dim, rng)


def _form_class(config, point, rng):
    return classes.sample_for_form(point["form"], config.dim, rng, config.cond)


def _single_point(config):
    return [{}]


def _norm_major(*checks, **forms):
    """Instance check over forms that each take every norm at once:
    fn(config, params, kinds, *matrices) returns one report per norm.
    Unnamed checks take the point as params; named forms add {"form":
    name}.  Each runs once, and its rows come norms outermost, then forms."""
    entries = [({}, fn) for fn in checks] + [({"form": name}, fn) for name, fn in forms.items()]

    def check(config, point, kinds, *mats):
        evaluated = []
        for form, fn in entries:
            params = {**point, **form}
            evaluated.append((params, fn(config, params, kinds, *mats)))
        return [(params, kind.label, reports[j]) for j, kind in enumerate(kinds) for params, reports in evaluated]

    return check


def _finalcor(config, point, kinds, s, x):
    # The max form is an operator-norm bound; each p gives a Schatten row.
    op_report, *power_reports = cpr.final_cor_check(s, x, config.p_values, tol=config.tol)
    rows = [({"form": "max"}, "op", op_report)]
    return rows + [({"p": p}, NormKind.schatten(p).label, rep) for p, rep in zip(config.p_values, power_reports)]


def _theorem(points, samplers, check):
    """Record generator of a theorem suite.

    points(config) lists the parameter points; matrix slot j of instance i
    at point pi is drawn by samplers[j] from
    rng.substream(pi).substream(i).substream(j); check(config, point,
    kinds, *matrices) evaluates the instance once and returns its rows
    (params, norm label, report) in record order.  The check's wall time
    is split evenly over the instance's records.
    """

    def records(config):
        kinds = [NormKind.parse(s) for s in config.norms]
        rng = matcore.Rng(config.seed)
        for pi, point in enumerate(points(config)):
            for i in range(config.count):
                sub = rng.substream(pi).substream(i)
                mats = [sample(config, point, sub.substream(j)) for j, sample in enumerate(samplers)]
                t0 = time.perf_counter()
                rows = check(config, point, kinds, *mats)
                wall = (time.perf_counter() - t0) / len(rows)
                for params, label, report in rows:
                    rec = {"norm": label, "params": params, "wall_time": wall, **report.as_dict()}
                    rec["min_margin"] = report.min_margin
                    yield rec

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
        _norm_major(lambda c, p, kinds, a, b, x: heinz.kittaneh_chain(a, b, x, p["alpha"], kinds, tol=c.tol)),
    ),
    "agm": _theorem(
        _single_point,
        (_general, _general, _probe),
        _norm_major(lambda c, p, kinds, a, b, x: heinz.agm_check(a, b, x, kinds, tol=c.tol)),
    ),
    "cpr": _theorem(
        _single_point,
        (_selfadjoint, _selfadjoint, _probe, _invertible),
        _norm_major(
            cpr=lambda c, p, kinds, s, t, x, g: cpr.cpr_check(s, x, kinds, tol=c.tol),
            two_sided=lambda c, p, kinds, s, t, x, g: cpr.cpr_two_sided_check(s, t, x, kinds, tol=c.tol),
            star=lambda c, p, kinds, s, t, x, g: cpr.cpr_star_check(g, x, kinds, tol=c.tol),
        ),
    ),
    "zhan": _theorem(
        lambda c: [{"t": t, "r": r} for t in c.t_values for r in c.r_values],
        (_posdef, _posdef, _probe),
        _norm_major(
            lambda c, p, kinds, a, b, x: cpr.zhan_chain(a, b, x, cpr.ZhanParams(p["t"], p["r"]), kinds, tol=c.tol)
        ),
    ),
    "cor23": _theorem(
        lambda c: [{"t": t} for t in c.t_values],
        (_general, _general, _probe),
        _norm_major(lambda c, p, kinds, a, b, x: cpr.cor23_check(a, b, x, p["t"], kinds, tol=c.tol)),
    ),
    "cor24": _theorem(
        lambda c: [{"t": t} for t in c.t_values],
        (_posdef, _posdef, _probe),
        _norm_major(lambda c, p, kinds, a, b, x: cpr.cor24_check(a, b, x, p["t"], kinds, tol=c.tol)),
    ),
    "t2": _theorem(
        _single_point,
        (_invertible, _probe, _probe),
        _norm_major(
            mos1=lambda c, p, kinds, s, x, y: cpr.mos1_check(s, x, y, kinds, tol=c.tol),
            mos2=lambda c, p, kinds, s, x, y: cpr.mos2_check(s, x, y, kinds, tol=c.tol),
        ),
    ),
    "finalcor": _theorem(_single_point, (_invertible, _probe), _finalcor),
    "characterizations": _theorem(
        lambda c: [{"form": form_id} for form_id in classes.FORMS],
        (_form_class, _probe),
        _norm_major(
            lambda c, p, kinds, s, x: classes.characterization_check(
                s, x, p["form"], kinds, tol=None if classes.FORMS[p["form"]].relation == "eq" else c.tol
            )
        ),
    ),
    "dk": _dk_records,
    "conjecture": _conjecture_records,
}
SUITES = tuple(_SUITES)

_ALL = ("verify", "conjecture", "dk-probe")
# Flag -> (subcommands that take it, argparse options).  Every flag except
# --config is also a config-file key.
_FLAGS = {
    "suite": (("verify",), {"help": "suite name: " + ", ".join(SUITES)}),
    "dim": (("verify",), {"type": int, "help": "matrix dimension (2..12, default 3)"}),
    "count": (_ALL, {"type": int, "help": "instances per parameter point"}),
    "seed": (_ALL, {"type": int, "help": "campaign seed (default 0)"}),
    "norms": (("verify",), {"help": "comma list of norm selectors (default op,tr,fro)"}),
    "tol": (("verify",), {"type": float, "help": "relative link tolerance (default 1e-8)"}),
    "cond": (("verify",), {"type": float, "help": "condition bound for sampled matrices (1..1e12, default 100)"}),
    "t": (("verify",), {"help": "comma list of t values; use --t=-1,0 for negatives"}),
    "r": (("verify",), {"help": "comma list: Heinz alphas (heinz) or exponents r (zhan)"}),
    "k": (_ALL, {"help": "comma list of shift values k"}),
    "p": (("verify",), {"help": "comma list of Schatten exponents p"}),
    "n": (("verify", "conjecture"), {"type": int, "help": "spectrum size for the conjecture suite (default 3)"}),
    "eigs": (("verify", "dk-probe"), {"help": "explicit spectrum, e.g. 1,2,-3"}),
    "starts": (("verify", "dk-probe"), {"type": int, "help": "random starts for the ratio probe (default 64)"}),
    "iters": (("verify", "dk-probe"), {"type": int, "help": "iterations per start (default 500)"}),
    "out": (_ALL + ("report",), {"help": "output JSONL path (default results.jsonl)"}),
    "config": (_ALL, {"help": "JSON config file; flags override its values"}),
    "no_timing": (
        _ALL,
        {"action": "store_true", "default": None, "help": "zero wall-time fields for byte-stable output"},
    ),
}
_CONFIG_KEYS = frozenset(_FLAGS) - {"config"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
        for name, (commands, options) in _FLAGS.items():
            if command in commands:
                p.add_argument("--" + name.replace("_", "-"), **options)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigInvalid("config file must hold a single JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
    return data


def _floats(value, flag: str) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        tokens = value
    else:
        tokens = [tok for tok in str(value).split(",") if tok.strip()]
    if not tokens:
        raise ConfigInvalid(f"{flag} must not be empty")
    try:
        return tuple(float(tok) for tok in tokens)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{flag} expects comma-separated reals, got {value!r}") from None


def _norm_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        tokens = [str(tok) for tok in value]
    else:
        tokens = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    if not tokens:
        raise ConfigInvalid("--norms must not be empty")
    return tuple(tokens)


def _int(value, flag: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{flag} expects an integer, got {value!r}") from None
    return out


def parse_args(argv=None) -> CampaignConfig:
    """Parse argv (and any --config file) into a validated CampaignConfig."""
    ns = _build_parser().parse_args(argv)
    file_cfg = _load_config_file(ns.config) if getattr(ns, "config", None) else {}

    def pick(name, default=None):
        cli = getattr(ns, name, None)
        if cli is not None:
            return cli
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return default

    command = ns.command
    suite = pick("suite")
    if command == "conjecture":
        suite = "conjecture"
    elif command == "dk-probe":
        suite = "dk"
    if suite is not None:
        suite = str(suite)

    count = pick("count")
    if count is None:
        count = DEFAULT_DK_COUNT if suite == "dk" else DEFAULT_COUNT

    raw_r = pick("r")
    if raw_r is None:
        r_values = DEFAULT_ALPHAS if suite == "heinz" else DEFAULT_R
    else:
        r_values = _floats(raw_r, "--r")

    raw_eigs = pick("eigs")
    config = CampaignConfig(
        command=command,
        suite=suite,
        dim=_int(pick("dim", 3), "--dim"),
        count=_int(count, "--count"),
        seed=_int(pick("seed", 0), "--seed"),
        norms=_norm_list(pick("norms", DEFAULT_NORMS)),
        tol=float(pick("tol", 1e-8)),
        cond=float(pick("cond", 100.0)),
        t_values=_floats(pick("t", DEFAULT_T), "--t"),
        r_values=r_values,
        k_values=_floats(pick("k", DEFAULT_K), "--k"),
        p_values=_floats(pick("p", DEFAULT_P), "--p"),
        n=_int(pick("n", 3), "--n"),
        eigs=None if raw_eigs is None else _floats(raw_eigs, "--eigs"),
        starts=_int(pick("starts", 64), "--starts"),
        iters=_int(pick("iters", 500), "--iters"),
        out=str(pick("out", "results.jsonl")),
        no_timing=bool(pick("no_timing", False)),
    )
    _validate(config)
    return config


def _validate(config: CampaignConfig) -> None:
    if config.command == "report":
        if not config.out:
            raise UsageError("report requires --out")
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
        if not all(math.isfinite(v) for v in values):
            raise ConfigInvalid(f"{flag} values must be finite, got {', '.join(map(str, values))}")
    if not 2 <= config.dim <= 12:
        raise ConfigInvalid(f"--dim must be in [2, 12], got {config.dim}")
    if config.count < 1:
        raise ConfigInvalid("--count must be >= 1")
    if config.tol <= 0.0:
        raise ConfigInvalid("--tol must be positive")
    # Sampled matrices of condition number beyond 1 / POSDEF_RTOL are
    # rejected by the kernels, which would abort the campaign.
    if not 1.0 <= config.cond <= 1.0 / matcore.POSDEF_RTOL:
        raise ConfigInvalid(f"--cond must be in [1, {1.0 / matcore.POSDEF_RTOL:g}], got {config.cond}")
    if not config.out:
        raise ConfigInvalid("--out must not be empty")
    for sel in config.norms:
        try:
            NormKind.parse(sel)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from None

    suite = config.suite
    if suite in ("zhan", "cor23", "cor24"):
        for t in config.t_values:
            if t > 2.0:
                raise ConfigInvalid(f"t must be <= 2, got {t}")
    if suite == "heinz":
        for a in config.r_values:
            if not 0.0 <= a <= 1.0:
                raise ConfigInvalid(f"Heinz exponent must be in [0, 1], got {a}")
    if suite == "zhan":
        for r in config.r_values:
            if not 0.5 <= r <= 1.5:
                raise ConfigInvalid(f"r must be in [1/2, 3/2], got {r}")
    if suite == "finalcor":
        for p in config.p_values:
            if p < 1.0:
                raise ConfigInvalid(f"Schatten exponent p must be >= 1, got {p}")
    if suite == "dk":
        for k in config.k_values:
            if not 0.0 <= k <= classes.DK_K_MAX:
                raise ConfigInvalid(f"k must be in [0, {classes.DK_K_MAX:g}] for the ratio probe, got {k}")
        if config.starts < 1 or config.iters < 1:
            raise ConfigInvalid("--starts and --iters must be >= 1")
        if config.eigs is not None and any(v == 0.0 for v in config.eigs):
            raise ConfigInvalid("--eigs entries must be nonzero")
        if config.command == "dk-probe" and config.eigs is None:
            raise UsageError("dk-probe requires --eigs")
    if suite == "conjecture":
        if not 2 <= config.n <= 12:
            raise ConfigInvalid(f"--n must be in [2, 12], got {config.n}")
        for k in config.k_values:
            if not 0.0 <= k <= 2.0:
                raise ConfigInvalid(f"conjecture k must be in [0, 2], got {k}")


def _collect_records(config: CampaignConfig) -> list[dict]:
    """Run the config's suite, numbering records in the order produced."""
    records = []
    for rec in _SUITES[config.suite](config):
        rec.update(suite=config.suite, instance=len(records))
        if config.no_timing:
            rec["wall_time"] = 0.0
        records.append(rec)
    return records


def _write_jsonl(path: str, records: list[dict]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bad_field(record: dict) -> str | None:
    """The first field _write_summary reads whose type it cannot use."""
    for key in ("count", "pass_count", "fail_count", "instance"):
        if key in record and not (isinstance(record[key], int) and not isinstance(record[key], bool)):
            return key
    for key in ("min_margin", "min_eig"):
        if record.get(key) is not None and not _is_number(record[key]):
            return key
    margins = record.get("margins", [])
    if not (isinstance(margins, list) and all(map(_is_number, margins))):
        return "margins"
    return None


def _read_jsonl(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
                    if not isinstance(records[-1], dict):
                        raise IoFailure(f"{path} holds a line that is not a JSON object: {line[:40]!r}")
                    bad = _bad_field(records[-1])
                    if bad is not None:
                        raise IoFailure(f"{path} holds a record whose {bad!r} has the wrong type: {line[:40]!r}")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IoFailure(f"{path} is not valid JSONL: {exc}") from None
    return records


def _write_summary(path: str, records: list[dict]) -> None:
    groups: dict[tuple, dict] = {}
    order: list[tuple] = []
    for r in sorted(records, key=lambda r: r.get("instance", 0)):
        key = (
            str(r.get("suite", "-")),
            str(r.get("norm", "-")),
            json.dumps(r.get("params", {}), sort_keys=True),
        )
        if key not in groups:
            groups[key] = {"count": 0, "pass": 0, "fail": 0, "min_margin": None, "min_eig": None}
            order.append(key)
        grp = groups[key]
        grp["count"] += r.get("count", 1)
        grp["pass"] += r.get("pass_count", 1 if r.get("pass") else 0)
        grp["fail"] += r.get("fail_count", 0 if r.get("pass") else 1)
        mm = r.get("min_margin")
        if mm is None and r.get("margins"):
            mm = min(r["margins"])
        if mm is not None:
            grp["min_margin"] = mm if grp["min_margin"] is None else min(grp["min_margin"], mm)
        me = r.get("min_eig")
        if me is not None:
            grp["min_eig"] = me if grp["min_eig"] is None else min(grp["min_eig"], me)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["suite", "norm", "params", "count", "pass", "fail", "min_margin", "min_eig"])
            for key in order:
                g = groups[key]
                writer.writerow(
                    [
                        key[0],
                        key[1],
                        key[2],
                        g["count"],
                        g["pass"],
                        g["fail"],
                        "" if g["min_margin"] is None else repr(float(g["min_margin"])),
                        "" if g["min_eig"] is None else repr(float(g["min_eig"])),
                    ]
                )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from None


def run(config: CampaignConfig) -> int:
    """Execute a parsed config; returns the process exit status."""
    _validate(config)
    if config.command == "report":
        records = _read_jsonl(config.out)
        _write_summary(config.out + ".summary.csv", records)
        return 0
    records = _collect_records(config)
    _write_jsonl(config.out, records)
    _write_summary(config.out + ".summary.csv", records)
    if config.suite in PROBE_SUITES:
        return 0
    return 0 if all(r["pass"] for r in records) else 1


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
