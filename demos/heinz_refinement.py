"""Walk through the five-member refinement of the Heinz bracket.

For positive definite A, B and arbitrary X, the bracket
H(s) = |A^s X B^(1-s) + A^(1-s) X B^s| interpolates between |AX+XB|
at s in {0, 1} and 2|A^(1/2) X B^(1/2)| at s = 1/2.  The chain inserts
an averaged term and a midpoint term between the endpoint bounds and
checks every adjacent link.

Run:  python3 demos/heinz_refinement.py
"""

from normlab import OP, Rng
from normlab.heinz import agm_check, heinz_check, integral_mean_norm, kittaneh_chain
from normlab.matcore import random_posdef, random_probe_matrix


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

    # The averaged member is a true integral; the quadrature is exact to
    # machine precision well before 32 nodes on this analytic integrand.
    lo, hi = 0.0, 0.3
    m32 = integral_mean_norm(a, b, x, lo, hi, OP, nodes=32)
    m64 = integral_mean_norm(a, b, x, lo, hi, OP, nodes=64)
    print(f"\nintegral mean, 32 vs 64 nodes: {m32:.12f} vs {m64:.12f} "
          f"(gap {abs(m32 - m64):.2e})")


if __name__ == "__main__":
    main()
