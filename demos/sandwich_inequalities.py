"""Sandwich bounds: conjugating X by S and S^-1 can only grow the norm.

For invertible self-adjoint S the sum S X S^-1 + S^-1 X S dominates 2|X|
in every unitarily invariant norm, and the same holds for the starred
variant with arbitrary invertible S, for two-sided versions with a pair
S, T, for shifted quadratic forms, and for block direct-sum forms.

Run:  python3 demos/sandwich_inequalities.py
"""

from normlab import FRO, OP, TR, Rng
from normlab.cpr import (
    cor23_check,
    cor24_check,
    cpr_check,
    cpr_star_check,
    cpr_two_sided_check,
    final_cor_check,
    mos1_check,
    mos2_check,
)
from normlab.matcore import (
    ginibre,
    random_invertible,
    random_posdef,
    random_probe_matrix,
    random_selfadjoint_invertible,
)


def main() -> None:
    rng = Rng(11)
    n = 4
    s = random_selfadjoint_invertible(n, 40.0, rng.substream(0))
    t = random_selfadjoint_invertible(n, 40.0, rng.substream(1))
    x = random_probe_matrix(n, rng.substream(2))

    print("one matrix, three sandwich variants (operator norm):")
    (rep,) = cpr_check(s, x, (OP,))
    print(f"  |SXS^-1 + S^-1XS|     = {rep.values[0]:.6f} >= {rep.values[1]:.6f}")
    (rep,) = cpr_two_sided_check(s, t, x, (OP,))
    print(f"  two-sided with T      = {rep.values[0]:.6f} >= {rep.values[1]:.6f}")
    g = random_invertible(n, 40.0, rng.substream(3))
    (rep,) = cpr_star_check(g, x, (OP,))
    print(f"  starred, arbitrary S  = {rep.values[0]:.6f} >= {rep.values[1]:.6f}")

    print("\nshifted quadratic forms, t in (-2, 2]:")
    a = ginibre(n, rng=rng.substream(4))
    b = ginibre(n, rng=rng.substream(5))
    for tv in (-1.0, 0.0, 1.0, 2.0):
        (rep,) = cor23_check(a, b, x, tv, (TR,))
        print(f"  arbitrary pair, t = {tv:>4}: {rep.values[0]:.6f} >= "
              f"{rep.values[1]:.6f}  pass = {rep.ok}")
    p = random_posdef(n, 40.0, rng.substream(6))
    q = random_posdef(n, 40.0, rng.substream(7))
    for tv in (-1.0, 0.0, 1.0, 2.0):
        (rep,) = cor24_check(p, q, x, tv, (FRO,))
        print(f"  positive pair,  t = {tv:>4}: {rep.values[0]:.6f} >= "
              f"{rep.values[1]:.6f}  pass = {rep.ok}")

    print("\nblock direct-sum forms with a second probe Y:")
    y = random_probe_matrix(n, rng.substream(8))
    for name, check in (("first", mos1_check), ("second", mos2_check)):
        (rep,) = check(g, x, y, (OP,))
        print(f"  {name} form: {rep.values[0]:.6f} >= {rep.values[1]:.6f}  "
              f"pass = {rep.ok}")

    print("\nmax and Schatten-power splits of the same two expressions:")
    ps = (1.0, 2.0, 3.0)
    op_rep, *pow_reps = final_cor_check(g, x, ps)
    for pv, pow_rep in zip(ps, pow_reps):
        print(f"  p = {pv}: max form {op_rep.values[0]:.6f} >= {op_rep.values[1]:.6f}, "
              f"power form {pow_rep.values[0]:.6f} >= {pow_rep.values[1]:.6f}")


if __name__ == "__main__":
    main()
