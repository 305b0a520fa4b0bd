"""The permutation kernels, on image tuples composed left to right.

They are implemented in the private module `_purekernels`, so the `compose`
calls inside `orbit_transversal` and `power` are not calls through this
interface.  `BACKEND` names the implementation in run records.
"""
from ._purekernels import (
    compose,
    conjugate,
    cycle_type,
    inverse,
    orbit_transversal,
    perm_order,
    power,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "compose",
    "inverse",
    "conjugate",
    "power",
    "perm_order",
    "cycle_type",
    "orbit_transversal",
]
