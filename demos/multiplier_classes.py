"""Norm identities that pin down operator classes, and the ratio probe.

phi(S, k, X) = S*XS^-1 + S^-1XS* + kX acts, in the eigenbasis of a
self-adjoint S, as an entrywise multiplier with entries
l_i/l_j + l_j/l_i + k.  Whether |phi(S, k, X)| >= (k+2)|X| can fail is
visible from the spectrum alone: some pair has to beat k + 2.

Run:  python3 demos/multiplier_classes.py
"""

import numpy as np

from normlab import Rng
from normlab.classes import (
    EQUALITY_FORMS,
    FORMS,
    characterization_check,
    constraint_check,
    dk_ratio_minimize,
    sample_for_form,
    schur_rep_residual,
)
from normlab.matcore import random_probe_matrix


def main() -> None:
    rng = Rng(3)
    x = random_probe_matrix(4, rng.substream(0))

    print("eigenbasis multiplier representation (residual vs direct route):")
    s = np.diag([1.0, 2.0, -3.0, 0.5])
    for k in (0.0, 1.0, 2.0):
        print(f"  k = {k}: residual = {schur_rep_residual(s, k, x):.3e}")

    print("\nspectral screen for the lower bound |phi| >= (k+2)|X|:")
    for eigs, k in (([1.0, 2.0, 4.0], 0.0), ([1.0, -1.0], 1.0), ([1.0, -4.0], 1.0)):
        res = constraint_check(eigs, k)
        print(f"  spectrum {eigs}, k = {k}: min cross-pair value {res.min_value:.4f} "
              f"vs {k + 2:.1f} -> {'passes' if res.ok else 'excluded'}")

    print("\nratio probe on an excluded spectrum (confirms with a violating X):")
    res = dk_ratio_minimize(np.diag([1.0, -1.0]), 1.0, starts=8, iters=100,
                            rng=rng.substream(1))
    print(f"  best ratio {res.best_ratio:.6f} < 3.0, verdict = {res.verdict}")

    print("\ncharacterization forms on their own classes (n = 4):")
    for idx, form_id in enumerate(sorted(FORMS)):
        s = sample_for_form(form_id, 4, rng.substream(100 + idx))
        (rep,) = characterization_check(s, x, form_id)
        relation = "eq" if form_id in EQUALITY_FORMS else "ineq"
        print(f"  {form_id:<8} ({relation:<5}) margin = {rep.min_margin:+.3e}  "
              f"pass = {rep.ok}")

    # Equalities really are class-specific: the reflection identity fails
    # for a generic normal operator.
    s_normal = sample_for_form("ineq9", 4, rng.substream(2))
    (rep,) = characterization_check(s_normal, x, "eq14")
    print(f"\nreflection equality on a generic normal S: pass = {rep.ok} "
          f"(margin {rep.min_margin:+.3e})")


if __name__ == "__main__":
    main()
