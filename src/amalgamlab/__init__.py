"""Exact computations with finite permutation groups, graph local actions,
ball stabilizers and amalgams."""

from .perm import Permutation, parse_permutation, format_group_file, parse_group_file
from .group import (
    ActionHom,
    PermGroup,
    alternating_group,
    commutator_subgroup,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    generate_group,
    intersection,
    symmetric_group,
    trivial_group,
)
from .errors import (
    AmalgamlabError,
    AmalgamError,
    ConstructionError,
    DegreeMismatchError,
    FormatError,
    GraphError,
    GuardExceededError,
)

__version__ = "0.1.0"
