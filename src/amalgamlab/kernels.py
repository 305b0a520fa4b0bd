"""Kernel backend selection.

By default the compiled module is used when present and the pure-Python
module otherwise.  AMALGAMLAB_BACKEND=python forces the fallback,
AMALGAMLAB_BACKEND=c demands the compiled module (ImportError if absent).
Both backends implement the identical contract, so everything above this
module is backend-agnostic.
"""
import os

_choice = os.environ.get("AMALGAMLAB_BACKEND", "auto")

if _choice == "python":
    from . import _purekernels as _impl
elif _choice == "c":
    from . import _fastkernels as _impl  # type: ignore[no-redef]
elif _choice == "auto":
    try:
        from . import _fastkernels as _impl  # type: ignore[no-redef]
    except ImportError:
        from . import _purekernels as _impl  # type: ignore[no-redef]
else:
    raise ValueError(
        f"AMALGAMLAB_BACKEND must be 'auto', 'c' or 'python', got {_choice!r}"
    )

BACKEND = _impl.BACKEND
compose = _impl.compose
inverse = _impl.inverse
conjugate = _impl.conjugate
power = _impl.power
perm_order = _impl.perm_order
orbit_transversal = _impl.orbit_transversal

__all__ = [
    "BACKEND",
    "compose",
    "inverse",
    "conjugate",
    "power",
    "perm_order",
    "orbit_transversal",
]
