"""Walk through the eight-member chain around |A^2X + XB^2 + tAXB|.

The shifted quadratic expression dominates (t+2) H(r) for
H(s) = |A^s X B^(2-s) + A^(2-s) X B^s|, any t in (-2, 2] and any
r in [1/2, 3/2].  The chain makes the route explicit: strip the shift,
pass to the Heinz-type bracket at 3/2, average over the regime
interval, hit the midpoint, land on H(r).

Run:  python3 demos/power_pair_chain.py
"""

from normlab import OP, Rng
from normlab.cpr import ZhanParams, zhan_chain, zhan_check
from normlab.matcore import random_posdef, random_probe_matrix


def main() -> None:
    rng = Rng(23)
    a = random_posdef(4, 50.0, rng.substream(0))
    b = random_posdef(4, 50.0, rng.substream(1))
    x = random_probe_matrix(4, rng.substream(2))

    print("full chain at t = 0.5, r = 0.8 (regime 1):")
    (rep,) = zhan_chain(a, b, x, ZhanParams(0.5, 0.8), (OP,))
    for label, value, in zip(rep.labels, rep.values):
        print(f"  {label:<36} = {value:.6f}")
    print(f"  min margin = {rep.min_margin:.3e}, pass = {rep.ok}")

    print("\nsame instance across the (t, r) grid corners:")
    for t in (-1.0, 0.0, 2.0):
        for r in (0.5, 1.0, 1.5):
            (rep,) = zhan_chain(a, b, x, ZhanParams(t, r), (OP,))
            print(f"  t = {t:>4}, r = {r:<4} ends {rep.values[0]:.6f} >= "
                  f"{rep.values[-1]:.6f}  pass = {rep.ok}")

    # At t = 2 the shift is already the unshifted square expansion, so the
    # first two members coincide exactly (same array, same floats).
    (rep,) = zhan_chain(a, b, x, ZhanParams(2.0, 1.0), (OP,))
    print(f"\nt = 2 collapse: first two members equal bitwise: "
          f"{rep.values[0] == rep.values[1]}")

    # r = 1 sits on the seam between the two averaging regimes; both give
    # the same chain because the interval degenerates symmetrically.
    (left,) = zhan_check(a, b, x, (0.5, 1.0 - 1e-12), (OP,))
    (right,) = zhan_check(a, b, x, (0.5, 1.0 + 1e-12), (OP,))
    seam = max(abs(lv - rv) for lv, rv in zip(left.values, right.values))
    print(f"regime seam at r = 1: max member gap across the switch = {seam:.3e}")


if __name__ == "__main__":
    main()
