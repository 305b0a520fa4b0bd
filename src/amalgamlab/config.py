"""Hard limits for searches and enumerations.

Potentially explosive routines raise GuardExceededError past one of these
guards.  ``elements`` bounds what one walk does, not a group order: the
elements it yields, the draws of a Sylow search, or the nodes a backtrack
forms; the others bound input sizes.  The two guards that practical use
bumps into can be set per process through environment variables, each to a
positive integer:

    AMALGAMLAB_GUARD_ELEMENTS   elements per walk, nodes per backtrack  (default 200000)
    AMALGAMLAB_GUARD_DEGREE     coset-action and group-file degree      (default 100000)

``Guards`` is the package's one dataclass; every other record class is a
plain ``__slots__`` class, because a dataclass compiles its generated methods
with ``exec`` on every start-up.  It stays one because the benchmark launcher
records the guard values with ``dataclasses.asdict``.
"""
import os
from dataclasses import dataclass

__all__ = ["Guards", "guards"]


@dataclass(frozen=True)
class Guards:
    elements: int = 200_000
    degree: int = 100_000
    order: int = 10**12
    setwise_degree: int = 512
    thompson_order: int = 4096
    isomorphism_degree: int = 64
    autos_vertices: int = 200


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    message = f"{name} must be a positive integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if value < 1:
        raise ValueError(message)
    return value


def guards() -> Guards:
    """Current guard values, re-reading the environment on each call."""
    base = Guards()
    return Guards(
        elements=_env_int("AMALGAMLAB_GUARD_ELEMENTS", base.elements),
        degree=_env_int("AMALGAMLAB_GUARD_DEGREE", base.degree),
        order=base.order,
        setwise_degree=base.setwise_degree,
        thompson_order=base.thompson_order,
        isomorphism_degree=base.isomorphism_degree,
        autos_vertices=base.autos_vertices,
    )
