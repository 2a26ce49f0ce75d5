"""Counterexample hunt for the positivity conjecture, and what it found.

The conjectured statement: if every pair of a real spectrum satisfies
|l_i/l_j + l_j/l_i + k| >= k + 2, then the matrix

    C_ij = l_i l_j / (l_i^2 + l_j^2 + k l_i l_j)

is positive semidefinite.  For n = 2 this holds (and for k = 0 at any n:
C is then a Cauchy matrix congruence).  For n >= 3 with k > 0 it is
false.  This script reruns the search, verifies one recorded witness in
exact rational arithmetic, and shows the norm inequality behind the
matrix failing on the same spectrum.

Run:  python3 demos/conjecture_hunt.py
"""

from fractions import Fraction

import numpy as np

from normlab import Rng
from normlab.classes import constraint_check, dk_ratio_minimize, phi
from normlab.conjecture import build_conj_matrix, conjecture_search, psd_check


def main() -> None:
    print("search n = 2, k in {0, 0.5, 1, 2}, 2000 constrained spectra per k:")
    for summ in conjecture_search(2, [0.0, 0.5, 1.0, 2.0], 2000, Rng(5)):
        print(f"  k = {summ.k:<4} violations = {summ.violations}  "
              f"min eig overall = {summ.min_eig_overall:+.3e}")

    print("\nsearch n = 3, same budget:")
    for summ in conjecture_search(3, [0.0, 0.5, 1.0, 2.0], 2000, Rng(5)):
        print(f"  k = {summ.k:<4} violations = {summ.violations}  "
              f"min eig overall = {summ.min_eig_overall:+.3e}")

    # One recorded witness, checked without floating point.  The pairwise
    # constraint holds with slack, yet det C < 0.
    lam = [0.0680547, 0.08611596, -0.44417643]
    k = 1.0
    res = constraint_check(lam, k)
    print(f"\nwitness spectrum {lam}, k = {k}:")
    print(f"  constraint min pair value = {res.min_value:.10f} >= 3 -> ok = {res.ok}")
    min_eig, ok = psd_check(build_conj_matrix(lam, k))
    print(f"  float route: min eig of C = {min_eig:+.6e}, psd = {ok}")

    fl = [Fraction(v) for v in lam]
    fk = Fraction(1)
    diag = 1 / (2 + fk)
    c = [[fl[i] * fl[j] / (fl[i] ** 2 + fl[j] ** 2 + fk * fl[i] * fl[j])
          if i != j else diag
          for j in range(3)] for i in range(3)]
    det = (c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
           - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
           + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0]))
    print(f"  exact route: det C = {float(det):+.6e} "
          f"({'negative, not PSD' if det < 0 else 'nonnegative'})")

    # The matrix C is the inverse problem of the multiplier bound
    # |phi(S, k, X)| >= (k+2)|X|, so the bound itself should fail here.
    s = np.diag(lam)
    probe = dk_ratio_minimize(s, k, starts=64, iters=500, rng=Rng(0))
    print(f"\nratio probe on diag(witness): best ratio = {probe.best_ratio:.10f} "
          f"(< 3), verdict = {probe.verdict}")
    y = probe.witness
    lhs = np.linalg.svd(phi(s, k, y), compute_uv=False)[0]
    rhs = (k + 2.0) * np.linalg.svd(y, compute_uv=False)[0]
    print(f"direct check on the minimizing X: |phi| = {lhs:.10f} vs "
          f"(k+2)|X| = {rhs:.10f}")
    print("\nso the pairwise spectral screen is necessary but not sufficient "
          "once n >= 3.")


if __name__ == "__main__":
    main()
