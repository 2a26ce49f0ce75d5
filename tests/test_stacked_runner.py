"""The stacked theorem runner against a per-instance reference loop.

``cli`` samples, decomposes and checks a campaign's instances in chunks of
THEOREM_CHUNK.  The reference below runs one instance at a time, as the
runner did before it ran on stacks: every matrix slot is drawn from its
own ``Rng.generator()`` by copies of the samplers' single-matrix bodies,
and every instance goes through the one-instance library checks.  The
JSONL and CSV files must be byte-identical, with chunks that straddle
parameter points too, and a stack with one bad member must fail as that
member's single check fails.
"""

import json

import numpy as np
import pytest

from normlab import classes, cli, cpr, heinz, matcore
from normlab.errors import NotHermitian, NotPositiveDefinite, Singular
from normlab.norms import NormKind

# -- single-matrix samplers, each drawing from one generator ---------------


def _ginibre(n, g):
    return (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)


def _haar(n, g):
    q, r = np.linalg.qr(_ginibre(n, g))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _hermitian(q, eigs):
    a = (q * eigs) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def _log_uniform(g, n, cond):
    return np.exp(g.uniform(-0.5, 0.5, size=n) * np.log(cond))


def _signs(g, n):
    return np.where(g.random(n) < 0.5, -1.0, 1.0)


def _scale(g):
    return float(10.0 ** g.uniform(-1.0, 1.0))


def _posdef(c, point, g):
    eigs = np.sort(_log_uniform(g, c.dim, c.cond))
    return _hermitian(_haar(c.dim, g), eigs)


def _selfadjoint(c, point, g):
    eigs = _log_uniform(g, c.dim, c.cond) * _signs(g, c.dim)
    return _hermitian(_haar(c.dim, g), eigs)


def _invertible(c, point, g):
    svals = _log_uniform(g, c.dim, c.cond)
    u = _haar(c.dim, g)
    v = _haar(c.dim, g)
    return (u * svals) @ v.conj().T


def _general(c, point, g):
    return _ginibre(c.dim, g)


def _probe(c, point, g):
    n = c.dim
    pick = g.integers(0, 4)
    if pick == 0:
        i = int(g.integers(0, n))
        j = int(g.integers(0, n - 1))
        x = np.zeros((n, n), dtype=complex)
        x[i, j + 1 if j >= i else j] = 1.0
        return x
    if pick == 1:
        z = _ginibre(n, g)
        return 0.5 * (z + z.conj().T)
    return _haar(n, g) if pick == 2 else _ginibre(n, g)


def _form_class(c, point, g):
    n, family = c.dim, classes.FORMS[point["form"]].family
    if family == "scaled_selfadjoint":
        coef = _scale(g) * np.exp(2j * np.pi * g.random())
        eigs = _log_uniform(g, n, c.cond) * _signs(g, n)
        return coef * _hermitian(_haar(n, g), eigs)
    if family == "normal":
        d = _log_uniform(g, n, c.cond) * np.exp(2j * np.pi * g.random(n))
        q = _haar(n, g)
        return (q * d) @ q.conj().T
    if family == "scaled_unitary":
        coef = _scale(g) * (-1.0 if g.random() < 0.5 else 1.0)
        return coef * _haar(n, g)
    coef = _scale(g) * np.exp(2j * np.pi * g.random())
    signs = _signs(g, n)
    return coef * _hermitian(_haar(n, g), signs)


# -- one-instance checks, rows in record order ------------------------------


def _per_norm(*checks, **forms):
    entries = [({}, fn) for fn in checks] + [({"form": name}, fn) for name, fn in forms.items()]

    def check(c, point, kinds, *mats):
        evaluated = [({**point, **form}, fn(c, point, kinds, *mats)) for form, fn in entries]
        return [(params, kind.label, reports[j]) for j, kind in enumerate(kinds) for params, reports in evaluated]

    return check


def _finalcor(c, point, kinds, s, x):
    op, *powers = cpr.final_cor_check(s, x, c.p_values, tol=c.tol)
    return [({"form": "max"}, "op", op)] + [
        ({"p": p}, NormKind.schatten(p).label, rep) for p, rep in zip(c.p_values, powers)
    ]


def _characterization(c, point, kinds, s, x):
    tol = None if classes.FORMS[point["form"]].relation == "eq" else c.tol
    reports = classes.characterization_check(s, x, point["form"], kinds, tol=tol)
    return [(dict(point), kind.label, rep) for kind, rep in zip(kinds, reports)]


_SINGLE = [{}]
REFERENCE = {
    "heinz": (
        lambda c: [{"alpha": a} for a in c.r_values],
        (_posdef, _posdef, _probe),
        _per_norm(lambda c, p, kinds, a, b, x: heinz.kittaneh_chain(a, b, x, p["alpha"], kinds, tol=c.tol)),
    ),
    "agm": (
        lambda c: _SINGLE,
        (_general, _general, _probe),
        _per_norm(lambda c, p, kinds, a, b, x: heinz.agm_check(a, b, x, kinds, tol=c.tol)),
    ),
    "cpr": (
        lambda c: _SINGLE,
        (_selfadjoint, _selfadjoint, _probe, _invertible),
        _per_norm(
            cpr=lambda c, p, kinds, s, t, x, g: cpr.cpr_check(s, x, kinds, tol=c.tol),
            two_sided=lambda c, p, kinds, s, t, x, g: cpr.cpr_two_sided_check(s, t, x, kinds, tol=c.tol),
            star=lambda c, p, kinds, s, t, x, g: cpr.cpr_star_check(g, x, kinds, tol=c.tol),
        ),
    ),
    "zhan": (
        lambda c: [{"t": t, "r": r} for t in c.t_values for r in c.r_values],
        (_posdef, _posdef, _probe),
        _per_norm(lambda c, p, kinds, a, b, x: cpr.zhan_chain(a, b, x, (p["t"], p["r"]), kinds, tol=c.tol)),
    ),
    "cor23": (
        lambda c: [{"t": t} for t in c.t_values],
        (_general, _general, _probe),
        _per_norm(lambda c, p, kinds, a, b, x: cpr.cor23_check(a, b, x, p["t"], kinds, tol=c.tol)),
    ),
    "cor24": (
        lambda c: [{"t": t} for t in c.t_values],
        (_posdef, _posdef, _probe),
        _per_norm(lambda c, p, kinds, a, b, x: cpr.cor24_check(a, b, x, p["t"], kinds, tol=c.tol)),
    ),
    "t2": (
        lambda c: _SINGLE,
        (_invertible, _probe, _probe),
        _per_norm(
            mos1=lambda c, p, kinds, s, x, y: cpr.mos1_check(s, x, y, kinds, tol=c.tol),
            mos2=lambda c, p, kinds, s, x, y: cpr.mos2_check(s, x, y, kinds, tol=c.tol),
        ),
    ),
    "finalcor": (lambda c: _SINGLE, (_invertible, _probe), _finalcor),
    "characterizations": (
        lambda c: [{"form": form_id} for form_id in classes.FORMS],
        (_form_class, _probe),
        _characterization,
    ),
}


def _reference_records(c):
    """The campaign's records, one instance at a time."""
    rng = matcore.Rng(c.seed)
    if c.suite == "dk":
        for pi, k in enumerate(c.k_values):
            for i in range(c.count):
                sub = rng.substream(pi).substream(i)
                s = _selfadjoint(c, None, sub.substream(0).generator())
                res = classes.dk_ratio_minimize(s, k, starts=c.starts, iters=c.iters, rng=sub.substream(1))
                bound = k + 2.0
                yield cli._probe_record(
                    "op", {"k": k}, ["best_ratio", "k+2"], [res.best_ratio, bound], res.best_ratio - bound,
                    res.verdict != "violated", 0.0, verdict=res.verdict, spectral_ok=res.spectral_ok,
                    eigenvalues=[float(v) for v in res.eigenvalues], starts_used=res.starts_used,
                )
        return
    kinds = [NormKind.parse(s) for s in c.norms]
    points, samplers, check = REFERENCE[c.suite]
    for pi, point in enumerate(points(c)):
        for i in range(c.count):
            sub = rng.substream(pi).substream(i)
            mats = [sample(c, point, sub.substream(j).generator()) for j, sample in enumerate(samplers)]
            for params, label, report in check(c, point, kinds, *mats):
                (record,) = report.as_dicts()
                yield {"norm": label, "params": params, "wall_time": 0.0, **record, "min_margin": min(record["margins"])}


SUITES = list(REFERENCE) + ["dk"]


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("seed, chunk", [(3, 5), (8, cli.THEOREM_CHUNK)])
def test_stacked_runner_writes_the_per_instance_bytes(tmp_path, monkeypatch, suite, dim, seed, chunk):
    monkeypatch.setattr(cli, "THEOREM_CHUNK", chunk)
    out = tmp_path / "stacked.jsonl"
    argv = ["verify", "--suite", suite, "--dim", str(dim), "--seed", str(seed), "--count", "2",
            "--norms", "op,tr,kyfan:2,schatten:3", "--starts", "4", "--iters", "20", "--no-timing", "--out", str(out)]
    code = cli.main(argv)
    records = []
    for rec in _reference_records(cli.parse_args(argv)):
        rec.update(suite=suite, instance=len(records))
        records.append(rec)
    ref = tmp_path / "reference.jsonl"
    with open(ref, "w", encoding="utf-8") as fh:
        cli._write_jsonl(fh, records)
    groups = {}
    for rec in records:
        cli._fold_record(groups, rec)
    cli._write_summary(str(ref) + ".summary.csv", groups)
    assert out.read_bytes() == ref.read_bytes()
    summary = tmp_path / "stacked.jsonl.summary.csv"
    assert summary.read_bytes() == (tmp_path / "reference.jsonl.summary.csv").read_bytes()
    assert code == (0 if suite == "dk" or all(r["pass"] for r in records) else 1)


def test_chunks_cross_points_and_the_count(tmp_path, monkeypatch):
    # 7 alphas x 11 instances in chunks of 4: every chunk but the last
    # straddles two alphas or lies inside one, and the record numbering and
    # wall-time split carry across chunks.
    monkeypatch.setattr(cli, "THEOREM_CHUNK", 4)
    argv = ["verify", "--suite", "heinz", "--dim", "3", "--seed", "2", "--count", "11", "--no-timing"]
    small = tmp_path / "small.jsonl"
    assert cli.main([*argv, "--out", str(small)]) == 0
    monkeypatch.setattr(cli, "THEOREM_CHUNK", 1000)
    whole = tmp_path / "whole.jsonl"
    assert cli.main([*argv, "--out", str(whole)]) == 0
    assert small.read_bytes() == whole.read_bytes()
    records = [json.loads(line) for line in small.read_text().splitlines()]
    assert [r["instance"] for r in records] == list(range(7 * 11 * 3))


# -- a bad member fails the stack as it fails its single check --------------


def _stack(sampler, n, m=4, seed=70):
    return sampler(n, *([100.0] if sampler is not matcore.random_probe_matrix else []),
                   matcore.substreams(seed, np.zeros((1, 0), dtype=int), range(m)))


_NOT_HERMITIAN = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
_NOT_POSDEF = np.diag([1.0, 1.0, 0.0]).astype(complex)
_SINGULAR = np.diag([1.0, -1.0, 0.0]).astype(complex)
KINDS = (NormKind.parse("op"), NormKind.parse("tr"))


@pytest.mark.parametrize(
    "check, slot, bad, error",
    [
        (lambda a, b, x: heinz.kittaneh_chain(a, b, x, 0.25, KINDS), 0, _NOT_POSDEF, NotPositiveDefinite),
        (lambda a, b, x: heinz.kittaneh_chain(a, b, x, 0.75, KINDS), 1, _NOT_HERMITIAN, NotHermitian),
        (lambda a, b, x: cpr.zhan_chain(a, b, x, (0.5, 1.25), KINDS), 1, _NOT_POSDEF, NotPositiveDefinite),
        (lambda a, b, x: cpr.cor24_check(a, b, x, 1.0, KINDS), 0, _NOT_HERMITIAN, NotHermitian),
        (lambda s, t, x: cpr.cpr_check(s, x, KINDS), 0, _NOT_HERMITIAN, NotHermitian),
        (lambda s, t, x: cpr.cpr_check(s, x, KINDS), 0, _SINGULAR, Singular),
        (lambda s, t, x: cpr.cpr_two_sided_check(s, t, x, KINDS), 1, _SINGULAR, Singular),
        (lambda s, t, x: cpr.cpr_star_check(s, x, KINDS), 0, _SINGULAR, Singular),
        (lambda s, t, x: cpr.mos2_check(s, x, t, KINDS), 0, _SINGULAR, Singular),
        (lambda s, t, x: cpr.final_cor_check(s, x, (1.0, 2.0)), 0, _SINGULAR, Singular),
        (lambda s, t, x: classes.characterization_check(s, x, "ineq9", KINDS), 0, _SINGULAR, Singular),
        (lambda s, t, x: classes.characterization_check(s, x, "eq14", KINDS), 0, _SINGULAR, Singular),
    ],
)
def test_stack_with_a_bad_last_member_raises_its_single_error(check, slot, bad, error):
    mats = [_stack(matcore.random_posdef, 3, seed=70 + j) for j in range(2)] + [_stack(matcore.random_probe_matrix, 3)]
    mats[slot][-1] = bad
    with pytest.raises(error):
        check(*(m[-1] for m in mats))
    with pytest.raises(error):
        check(*mats)
    check(*(m[:-1] for m in mats))


@pytest.mark.parametrize("suite, sampler", [("heinz", "random_posdef"), ("cpr", "random_selfadjoint_invertible")])
def test_campaign_with_a_bad_last_member_exits_3_without_records(tmp_path, capsys, monkeypatch, suite, sampler):
    real = getattr(matcore, sampler)

    def last_bad(n, cond, rngs):
        mats = real(n, cond, rngs)
        mats[-1] = _NOT_POSDEF if suite == "heinz" else _SINGULAR
        return mats

    monkeypatch.setattr(matcore, sampler, last_bad)
    out = tmp_path / "out.jsonl"
    assert cli.main(["verify", "--suite", suite, "--dim", "3", "--count", "5", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()
    assert not (tmp_path / "out.jsonl.tmp").exists()


def test_failure_after_a_streamed_chunk_keeps_the_earlier_output(tmp_path, capsys, monkeypatch):
    # The first chunk's records go to <out>.tmp before the second chunk's
    # singular S fails the run: the temp file is removed, and the <out> and
    # summary of an earlier run stay as they were.
    monkeypatch.setattr(cli, "THEOREM_CHUNK", 5)
    out, tmp = tmp_path / "out.jsonl", tmp_path / "out.jsonl.tmp"
    argv = ["verify", "--suite", "cpr", "--dim", "3", "--count", "12", "--no-timing", "--out", str(out)]
    assert cli.main(argv) == 0
    earlier = out.read_bytes(), (tmp_path / "out.jsonl.summary.csv").read_bytes()
    real, seen = matcore.random_selfadjoint_invertible, []

    def singular_in_the_second_chunk(n, cond, rngs):
        # cpr draws two self-adjoint slots per chunk.
        seen.append(tmp.exists())
        mats = real(n, cond, rngs)
        if len(seen) > 2:
            mats[0] = _SINGULAR
        return mats

    monkeypatch.setattr(matcore, "random_selfadjoint_invertible", singular_in_the_second_chunk)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: Singular")
    assert seen == [True] * 4
    assert not tmp.exists()
    assert (out.read_bytes(), (tmp_path / "out.jsonl.summary.csv").read_bytes()) == earlier
