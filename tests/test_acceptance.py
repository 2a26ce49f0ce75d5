"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints exactly one line (visible through pytest's capture) of the
form "ACCEPTANCE <n> PASS/FAIL: ..." so a log scrape recovers the verdicts
without parsing pytest output.
"""

import time

import numpy as np
import pytest
import scipy.optimize

from chain_asserts import gauss_mean
from normlab import classes, cli, conjecture, cpr, heinz, matcore
from normlab.norms import FRO, OP, TR, NormKind, direct_sum_norm, norm, norms_from_sv

KINDS5 = (OP, TR, FRO, NormKind.kyfan(2), NormKind.schatten(3.0))
ALPHA_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
R_GRID = (0.5, 0.75, 1.0, 1.25, 1.5)
K_GRID = (0.0, 0.5, 1.0, 2.0)


@pytest.fixture
def announce(capfd):
    def _line(text: str) -> None:
        with capfd.disabled():
            print(text, flush=True)

    return _line


# -------------------------------------------------------------- criterion 1


def test_acceptance_01_kernel_accuracy(announce):
    t0 = time.perf_counter()
    rng = matcore.Rng(1001)
    worst_eig = worst_svd = 0.0
    for i in range(200):
        sub = rng.substream(i)
        n = 2 + i % 7
        a = matcore.random_selfadjoint_invertible(n, 1e4, sub.substream(0))
        scale = max(1.0, float(np.linalg.norm(a)))
        dec = matcore.herm_eigen(a)
        recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        worst_eig = max(worst_eig, float(np.linalg.norm(recon - a)) / scale)
        sdec = matcore.svd(a)
        srecon = (sdec.left * sdec.singular_values) @ sdec.right.conj().T
        worst_svd = max(worst_svd, float(np.linalg.norm(srecon - a)) / scale)

    worst_semi = 0.0
    for i in range(200):
        sub = rng.substream(1000 + i)
        n = 2 + i % 7
        p = matcore.random_posdef(n, 1e4, sub.substream(0))
        g = sub.substream(1).generator()
        s = float(g.uniform(0.0, 2.0))
        t = float(g.uniform(0.0, 2.0 - s))
        lhs = matcore.frac_power(p, s) @ matcore.frac_power(p, t)
        rhs = matcore.frac_power(p, s + t)
        worst_semi = max(
            worst_semi, float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs)))
        )

    wall = time.perf_counter() - t0
    ok = worst_eig <= 1e-10 and worst_svd <= 1e-10 and worst_semi <= 1e-9 and wall < 10.0
    announce(
        f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'}: 200 self-adjoint draws n<=8 cond<=1e4: "
        f"eig recon {worst_eig:.2e} (<=1e-10), svd recon {worst_svd:.2e} (<=1e-10), "
        f"power semigroup {worst_semi:.2e} (<=1e-9), {wall:.1f}s (<10s)"
    )
    assert ok


# -------------------------------------------------------------- criterion 2


def test_acceptance_02_heinz_refinement_chain(announce):
    rng = matcore.Rng(1002)
    combos = [(a, k) for a in ALPHA_GRID for k in KINDS5]
    worst_margin = np.inf
    worst_gap = 0.0
    for i in range(500):
        alpha, kind = combos[i % len(combos)]
        sub = rng.substream(i)
        n = 2 + i % 5
        a = matcore.random_posdef(n, 100.0, sub.substream(0))
        b = matcore.random_posdef(n, 100.0, sub.substream(1))
        x = matcore.random_probe_matrix(n, sub.substream(2))
        (rep,) = heinz.kittaneh_chain(a, b, x, alpha, (kind,), tol=1e-8)
        assert rep.ok, (i, alpha, kind.label, rep.as_dicts())
        worst_margin = min(worst_margin, rep.min_margin)
        if i % 10 == 0 and 0.0 < alpha < 1.0:
            lo, hi = (0.0, alpha) if alpha <= 0.5 else (alpha, 1.0)
            # A 1024-node reference: 64 panels of 16.
            basis = heinz.pair_basis(a, b, x)
            want = gauss_mean(lambda s: norms_from_sv(heinz.power_pair_sv(basis, s), (kind,))[0], lo, hi, 16, 64)
            worst_gap = max(worst_gap, abs(rep.values[2] - want) / max(1.0, abs(want)))
    ok = worst_gap <= 1e-8
    announce(
        f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'}: 500 five-member chains, dims 2-6, "
        f"7 alphas x 5 norms at tol 1e-8: worst link margin {worst_margin:.2e}, "
        f"quadrature gap to a 1024-node rule {worst_gap:.2e} (<=1e-8)"
    )
    assert ok


# -------------------------------------------------------------- criterion 3


def test_acceptance_03_power_pair_chain(announce):
    rng = matcore.Rng(1003)
    worst_margin = np.inf
    checked = 0
    for t_idx, t in enumerate(T_GRID):
        for r_idx, r in enumerate(R_GRID):
            params = cpr.ZhanParams(t, r)
            # Instance i has n = 2 + i % 4 and norm KINDS5[i % 5], so the
            # instances of one residue mod 20 are checked as one stack.
            for first in range(20):
                group = range(first, 200, 20)
                # Slot j of instance i draws the path (t_idx, r_idx, i, j) under rng.
                prefixes = [rng.path + (t_idx, r_idx, i) for i in group]
                n = 2 + first % 4
                a = matcore.random_posdef(n, 50.0, matcore.substreams(rng.seed, prefixes, [0]))
                b = matcore.random_posdef(n, 50.0, matcore.substreams(rng.seed, prefixes, [1]))
                x = matcore.random_probe_matrix(n, matcore.substreams(rng.seed, prefixes, [2]))
                kind = KINDS5[first % 5]
                (stack,) = cpr.zhan_chain(a, b, x, params, (kind,), tol=1e-8)
                for i, rep in zip(group, stack.as_dicts()):
                    assert rep["pass"], (t, r, i, kind.label, rep)
                    worst_margin = min(worst_margin, *rep["margins"])
                    checked += 1

    worst_seam = 0.0
    for i in range(40):
        sub = rng.substream(9000).substream(i)
        n = 2 + i % 4
        a = matcore.random_posdef(n, 50.0, sub.substream(0))
        b = matcore.random_posdef(n, 50.0, sub.substream(1))
        x = matcore.random_probe_matrix(n, sub.substream(2))
        basis = heinz.pair_basis(a, b, x)
        kind = KINDS5[i % 5]
        (low,) = cpr._zhan_reports(basis, 0.5, 1.0, 1, (kind,), 1e-8)
        (high,) = cpr._zhan_reports(basis, 0.5, 1.0, 2, (kind,), 1e-8)
        for v1, v2 in zip(low.values, high.values):
            worst_seam = max(worst_seam, abs(v1 - v2) / max(1.0, abs(v1)))
    ok = worst_seam <= 1e-10
    announce(
        f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: {checked} eight-member chains over "
        f"5x5 (t,r) grid, dims 2-5, 5 norms at tol 1e-8: worst margin {worst_margin:.2e}; "
        f"regime seam at r=1 {worst_seam:.2e} (<=1e-10)"
    )
    assert ok


# -------------------------------------------------------------- criterion 4


def test_acceptance_04_quadratic_corollaries(announce):
    rng = matcore.Rng(1004)
    worst23 = np.inf
    for i in range(500):
        t = T_GRID[i % 5]
        sub = rng.substream(i)
        n = 2 + i % 4
        a = matcore.ginibre(n, rng=sub.substream(0))
        b = matcore.ginibre(n, rng=sub.substream(1))
        if i % 5 == 4:
            a = np.triu(a)  # deliberately non-normal
        x = matcore.random_probe_matrix(n, sub.substream(2))
        (rep,) = cpr.cor23_check(a, b, x, t, (KINDS5[i % 5],), tol=1e-8)
        assert rep.ok, (i, t, rep.as_dicts())
        worst23 = min(worst23, rep.min_margin)

    worst24 = np.inf
    for i in range(500):
        t = T_GRID[i % 5]
        sub = rng.substream(10000 + i)
        n = 2 + i % 4
        p = matcore.random_posdef(n, 100.0, sub.substream(0))
        q = matcore.random_posdef(n, 100.0, sub.substream(1))
        x = matcore.random_probe_matrix(n, sub.substream(2))
        (rep,) = cpr.cor24_check(p, q, x, t, (KINDS5[i % 5],), tol=1e-8)
        assert rep.ok, (i, t, rep.as_dicts())
        worst24 = min(worst24, rep.min_margin)
    announce(
        "ACCEPTANCE 4 PASS: 500 absolute-value-pair bounds (arbitrary A,B incl. "
        f"non-normal, worst margin {worst23:.2e}) and 500 positive-pair bounds "
        f"(worst margin {worst24:.2e}) over t in {{-1,0,0.5,1,2}} at tol 1e-8"
    )


# -------------------------------------------------------------- criterion 5


def test_acceptance_05_block_and_power_forms(announce):
    rng = matcore.Rng(1005)
    worst_erf = 0.0
    worst_pair = 0.0
    for i in range(500):
        sub = rng.substream(i)
        n = 2 + i % 4
        p = float((1.0, 2.0, 3.0)[i % 3])
        s = matcore.random_invertible(n, 100.0, sub.substream(0))
        x = matcore.random_probe_matrix(n, sub.substream(1))
        y = matcore.random_probe_matrix(n, sub.substream(2))
        kind = KINDS5[i % 5]
        assert cpr.mos1_check(s, x, y, (kind,), tol=1e-8)[0].ok
        assert cpr.mos2_check(s, x, y, (kind,), tol=1e-8)[0].ok
        op_rep, pow_rep = cpr.final_cor_check(s, x, (p,), tol=1e-8)
        assert op_rep.ok and pow_rep.ok

        # Direct-sum norm identities on this instance's blocks.
        got_op = direct_sum_norm(x, y, OP)
        want_op = max(norm(x, OP), norm(y, OP))
        worst_erf = max(worst_erf, abs(got_op - want_op) / max(1.0, want_op))
        skind = NormKind.schatten(p)
        got_p = direct_sum_norm(x, y, skind) ** p
        want_p = norm(x, skind) ** p + norm(y, skind) ** p
        worst_erf = max(worst_erf, abs(got_p - want_p) / max(1.0, want_p))

        # Operator-norm block bound against the max form at Y = X.
        (block,) = cpr.mos1_check(s, x, x, (OP,), tol=1e-8)
        worst_pair = max(
            worst_pair, abs(block.values[0] - op_rep.values[0]) / max(1.0, op_rep.values[0])
        )
    ok = worst_erf <= 1e-12 and worst_pair <= 1e-12
    announce(
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: 500 block/power instances dims 2-5, "
        f"p in {{1,2,3}}: direct-sum identities {worst_erf:.2e} (<=1e-12), "
        f"block-vs-max agreement {worst_pair:.2e} (<=1e-12)"
    )
    assert ok


# -------------------------------------------------------------- criterion 6


def test_acceptance_06_multiplier_structure(announce):
    rng = matcore.Rng(1006)
    worst_rep = 0.0
    for i in range(500):
        sub = rng.substream(i)
        n = 2 + i % 11
        s = matcore.random_selfadjoint_invertible(n, 100.0, sub.substream(0))
        x = matcore.random_probe_matrix(n, sub.substream(1))
        k = K_GRID[i % 4]
        worst_rep = max(worst_rep, classes.schur_rep_residual(s, k, x))

    worst_bound = np.inf
    for i in range(500):
        sub = rng.substream(20000 + i)
        n = 2 + i % 11
        z = matcore.ginibre(n, rng=sub.substream(0))
        gram = z.conj().T @ z
        gram = 0.5 * (gram + gram.conj().T)
        x = matcore.random_probe_matrix(n, sub.substream(1))
        rep = classes.schur_theorem_bound_check(gram, x)
        assert rep.ok, (i, rep.as_dicts())
        worst_bound = min(worst_bound, rep.min_margin)
    ok = worst_rep <= 1e-10
    announce(
        f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'}: 500 eigenbasis-representation "
        f"residuals n<=12 worst {worst_rep:.2e} (<=1e-10); 500 PSD multiplier bounds "
        f"worst margin {worst_bound:.2e}"
    )
    assert ok


# -------------------------------------------------------------- criterion 7
#
# The brute-force oracle comes first and shares nothing with the package
# probe: closed-form 2x2 largest singular value, a dense grid over the
# reduced parametrization, then a simplex refinement.


def _sigma_top_2x2(m11, m12, m21, m22):
    f = np.abs(m11) ** 2 + np.abs(m12) ** 2 + np.abs(m21) ** 2 + np.abs(m22) ** 2
    d = np.abs(m11 * m22 - m12 * m21) ** 2
    disc = np.sqrt(np.maximum(f * f - 4.0 * d, 0.0))
    return np.sqrt(0.5 * (f + disc))


def _oracle_min_ratio_2x2(lam, mu, k, grid=14, phases=16):
    # Diagonal phase rotations make three entries real nonnegative; the
    # remaining freedom is one phase on the last entry plus magnitudes on
    # the unit sphere.  The multiplier is real symmetric with diagonal
    # 2 + k and off-diagonal lam/mu + mu/lam + k.
    m_off = lam / mu + mu / lam + k
    m_diag = 2.0 + k

    def ratio(t1, t2, t3, phi):
        r11 = np.cos(t1)
        r12 = np.sin(t1) * np.cos(t2)
        r21 = np.sin(t1) * np.sin(t2) * np.cos(t3)
        r22 = np.sin(t1) * np.sin(t2) * np.sin(t3) * np.exp(1j * phi)
        num = _sigma_top_2x2(m_diag * r11, m_off * r12, m_off * r21, m_diag * r22)
        den = _sigma_top_2x2(r11, r12, r21, r22)
        return num / den

    half_pi = 0.5 * np.pi
    t1, t2, t3, phi = np.meshgrid(
        np.linspace(0.0, half_pi, grid),
        np.linspace(0.0, half_pi, grid),
        np.linspace(0.0, half_pi, grid),
        np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False),
        indexing="ij",
    )
    vals = ratio(t1, t2, t3, phi)
    flat = np.argmin(vals)
    start = np.array([t1.ravel()[flat], t2.ravel()[flat], t3.ravel()[flat], phi.ravel()[flat]])
    res = scipy.optimize.minimize(
        lambda v: float(ratio(*v)), start, method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-12}
    )
    return min(float(vals.ravel()[flat]), float(res.fun))


def test_acceptance_07_two_by_two_exactness(announce):
    rng = matcore.Rng(1007)
    g = rng.generator()
    worst_oracle = 0.0
    worst_probe = 0.0
    for i in range(50):
        k = K_GRID[i % 4]
        lam = float(10.0 ** g.uniform(-1, 1))
        mu = float(10.0 ** g.uniform(-1, 1))
        sign_pattern = ((1, 1), (1, -1), (-1, -1), (-1, 1))[i % 4]
        lam *= sign_pattern[0]
        mu *= sign_pattern[1]

        closed = min(k + 2.0, abs(lam / mu + mu / lam + k))
        oracle = _oracle_min_ratio_2x2(lam, mu, k)
        worst_oracle = max(worst_oracle, abs(oracle - closed))

        res = classes.dk_ratio_minimize(
            np.diag([lam, mu]), k, starts=8, iters=60, rng=rng.substream(i)
        )
        worst_probe = max(worst_probe, abs(res.best_ratio - oracle))
    ok = worst_oracle <= 1e-4 and worst_probe <= 1e-4
    announce(
        f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'}: 50 two-point spectra, k in "
        f"{{0,0.5,1,2}}: grid+simplex oracle vs closed form {worst_oracle:.2e} (<=1e-4), "
        f"probe vs oracle {worst_probe:.2e} (<=1e-4)"
    )
    assert ok


# -------------------------------------------------------------- criterion 8


def test_acceptance_08_characterizations(announce):
    rng = matcore.Rng(1008)
    worst_eq = 0.0
    for i in range(300):
        sub = rng.substream(i)
        n = 2 + i % 4
        s = classes.sample_for_form("eq14", n, sub.substream(0))
        x = matcore.random_probe_matrix(n, sub.substream(1))
        (rep,) = classes.characterization_check(s, x, "eq14", tol=1e-9)
        assert rep.ok, (i, rep.as_dicts())
        worst_eq = max(worst_eq, abs(rep.margins[0]) / max(1.0, rep.values[0]))

        u = classes.sample_for_form("ineq13", n, sub.substream(2))
        (rep,) = classes.characterization_check(u, x, "ineq13", tol=1e-9)
        assert rep.ok, (i, rep.as_dicts())

        nrm = classes.sample_for_form("ineq9", n, sub.substream(3))
        (rep,) = classes.characterization_check(nrm, x, "ineq9")
        assert rep.ok, (i, rep.as_dicts())

        h = matcore.random_selfadjoint_invertible(n, 100.0, sub.substream(4))
        (rep,) = cpr.cpr_check(h, x, (KINDS5[i % 5],))
        assert rep.ok, (i, rep.as_dicts())
    announce(
        f"ACCEPTANCE 8 PASS: 300 instances each: reflection-class equality at 1e-9 "
        f"(worst residual {worst_eq:.2e}), scaled-unitary upper bound at 1e-9, "
        f"normal-class split bound, self-adjoint sandwich bound"
    )


# -------------------------------------------------------------- criterion 9


def test_acceptance_09_conjecture_harness(announce, tmp_path):
    t0 = time.perf_counter()
    sink2 = tmp_path / "n2.violations.jsonl"
    summ2 = conjecture.conjecture_search(2, list(K_GRID), 2500, matcore.Rng(1009), violations_path=sink2)
    viol2 = sum(s.violations for s in summ2)
    min2 = min(s.min_eig_overall for s in summ2)

    findings = 0
    for n in (3, 4, 5):
        path = tmp_path / f"n{n}.violations.jsonl"
        summ = conjecture.conjecture_search(n, list(K_GRID), 2500, matcore.Rng(1009), violations_path=path)
        findings += sum(s.violations for s in summ)
        if n == 3:
            again = conjecture.conjecture_search(3, list(K_GRID), 2500, matcore.Rng(1009))
            for s1, s2 in zip(summ, again):
                assert (s1.k, s1.rejected, s1.violations, s1.min_eig_overall) == (
                    s2.k,
                    s2.rejected,
                    s2.violations,
                    s2.min_eig_overall,
                )
                assert np.array_equal(s1.hist_counts, s2.hist_counts)
                assert np.array_equal(s1.hist_edges, s2.hist_edges)

    # Bit-stable persistence: every recorded finding rebuilds to the exact
    # recorded minimum eigenvalue from its JSON floats.
    loaded = conjecture.load_violations(tmp_path / "n3.violations.jsonl")
    assert loaded, "n=3 search is expected to record findings"
    for rec in loaded:
        me, ok = conjecture.psd_check(conjecture.build_conj_matrix(rec["lambdas"], rec["k"]))
        assert not ok
        assert me == rec["min_eig"]

    wall = time.perf_counter() - t0
    ok = viol2 == 0 and min2 >= -1e-10 and wall < 120.0
    announce(
        f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: n=2 with 1e4 constrained instances: "
        f"0 violations (min eig {min2:.2e} >= -1e-10); n=3..5 report-only: {findings} "
        f"findings recorded, deterministic summaries, {len(loaded)} records round-trip "
        f"bit-stably; {wall:.1f}s (<120s)"
    )
    assert ok


# -------------------------------------------------------------- criterion 10


SUITE_ARGS = {
    "heinz": ["--dim", "2", "--count", "2", "--r", "0.25,0.75", "--norms", "op,tr"],
    "agm": ["--dim", "3", "--count", "2", "--norms", "op"],
    "cpr": ["--dim", "3", "--count", "2", "--norms", "op,fro"],
    "zhan": ["--dim", "2", "--count", "1", "--t", "0,2", "--r", "1", "--norms", "op"],
    "cor23": ["--dim", "2", "--count", "1", "--t", "0,1", "--norms", "tr"],
    "cor24": ["--dim", "2", "--count", "1", "--t", "0", "--norms", "op"],
    "t2": ["--dim", "2", "--count", "2", "--norms", "op"],
    "finalcor": ["--dim", "2", "--count", "2", "--p", "1,3"],
    "characterizations": ["--dim", "3", "--count", "1", "--norms", "op"],
    "dk": ["--count", "1", "--k", "0,1", "--starts", "2", "--iters", "10"],
    "conjecture": ["--n", "2", "--k", "0,1", "--count", "20"],
}


def test_acceptance_10_determinism(announce, tmp_path):
    # Campaigns are sequential with per-index substreams, so worker count
    # has no representation in the output; reruns must agree byte for byte
    # once timing is zeroed.
    for suite, extra in SUITE_ARGS.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{suite}-{tag}.jsonl"
            argv = [
                "verify",
                "--suite",
                suite,
                "--seed",
                "7",
                "--no-timing",
                "--out",
                str(out),
                *extra,
            ]
            rc = cli.main(argv)
            assert rc == 0, (suite, rc)
            outs.append(out)
        a, b = outs
        assert a.read_bytes() == b.read_bytes(), suite
        assert (tmp_path / f"{suite}-a.jsonl.summary.csv").read_bytes() == (
            tmp_path / f"{suite}-b.jsonl.summary.csv"
        ).read_bytes(), suite
    announce(
        f"ACCEPTANCE 10 PASS: all {len(SUITE_ARGS)} suites rerun byte-identical "
        f"(JSONL and summary CSV, timing zeroed, seed 7)"
    )
