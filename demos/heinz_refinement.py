"""Walk through the five-member refinement of the Heinz bracket.

For positive definite A, B and arbitrary X, the bracket
H(s) = |A^s X B^(1-s) + A^(1-s) X B^s| interpolates between |AX+XB|
at s in {0, 1} and 2|A^(1/2) X B^(1/2)| at s = 1/2.  The chain inserts
an averaged term and a midpoint term between the endpoint bounds and
checks every adjacent link.

Run:  python3 demos/heinz_refinement.py
"""

import numpy as np

from normlab import OP, Rng
from normlab.heinz import agm_check, heinz_check, heinz_expr, integral_mean_norm, kittaneh_chain
from normlab.matcore import random_posdef, random_probe_matrix
from normlab.norms import norm


def main() -> None:
    rng = Rng(7)
    a = random_posdef(4, 50.0, rng.substream(0))
    b = random_posdef(4, 50.0, rng.substream(1))
    x = random_probe_matrix(4, rng.substream(2))

    (rep,) = agm_check(a, b, x, (OP,))
    print("arithmetic-geometric mean bound (operator norm):")
    for label, value in zip(rep.labels, rep.values):
        print(f"  {label:<24} = {value:.6f}")
    print(f"  min margin = {rep.min_margin:.3e}, pass = {rep.ok}")

    print("\nHeinz bracket is symmetric around 1/2 and widest at the ends:")
    for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        (rep,) = heinz_check(a, b, x, alpha, (OP,))
        print(f"  alpha = {alpha:<5} bracket = {rep.values[1]:.6f}  pass = {rep.ok}")

    print("\nfive-member chain at alpha = 0.3:")
    (rep,) = kittaneh_chain(a, b, x, 0.3, (OP,))
    for label, value in zip(rep.labels, rep.values):
        print(f"  {label:<28} = {value:.6f}")
    print(f"  link margins: {['%.3e' % m for m in rep.margins]}")
    print(f"  pass = {rep.ok}")

    # The averaged member is a true integral.  The nested rule stops once
    # two of its levels agree; 16-node Gauss-Legendre on 64 panels, over the
    # explicit products, checks its value.
    lo, hi = 0.0, 0.3
    mean = integral_mean_norm(a, b, x, lo, hi, OP)
    edges = np.linspace(lo, hi, 65)
    base, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * base).ravel()
    vals = [norm(heinz_expr(a, b, x, s), OP) for s in pts]
    fine = float(np.dot((half * w).ravel(), vals) / (hi - lo))
    print(f"\nintegral mean, nested rule vs 1024-node reference: {mean:.12f} vs {fine:.12f} "
          f"(gap {abs(mean - fine):.2e})")


if __name__ == "__main__":
    main()
