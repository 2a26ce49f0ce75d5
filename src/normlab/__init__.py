"""normlab: numerical verification of unitarily invariant norm inequalities.

The package checks refinement chains around arithmetic-geometric-mean and
Heinz-type matrix inequalities, sandwich bounds S X S^-1 + S^-1 X S and
their shifted and starred variants, norm identities characterizing
scalar multiples of self-adjoint, normal, unitary, and reflection
operators, and a positivity conjecture for a spectrum-indexed matrix.
Each check returns one ChainStack per norm; on one instance its arrays
have no leading axis.
Every random instance is drawn from an explicit seeded stream, so any
reported number is reproducible from (config, seed).
"""

from .chains import ChainStack, chain
from .matcore import Rng
from .norms import FRO, OP, TR, NormKind, norm

__version__ = "0.1.0"

__all__ = [
    "ChainStack",
    "chain",
    "Rng",
    "NormKind",
    "norm",
    "OP",
    "TR",
    "FRO",
    "__version__",
]
