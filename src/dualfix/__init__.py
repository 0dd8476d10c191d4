"""Fix-point lattices of finite distributive lattice endomorphisms, computed
on the order dual: quotient the dual map's graph and read fix-points off as
order ideals of the quotient."""

from .errors import (
    AntisymmetryViolation,
    DuplicateElement,
    InvalidInput,
    NotALattice,
    NotDistributive,
    NotHom,
    NotMonotone,
    QuotientNotAntisymmetric,
    SizeBoundExceeded,
    UnknownElement,
)
from .poset import (
    MonotoneMap,
    OrderIdeal,
    Poset,
    build_poset,
    count_ideals,
    is_monotone,
    iter_ideal_masks,
)
from .lattice import (
    FiniteLattice,
    LatticeHom,
    explicit_lattice_bound,
    ideal_lattice,
    is_homomorphism,
    join_irreducibles,
    lattice_from_order,
)
from .duality import dual_map, hom_from_dual, lift_hom
from .fixpoint import (
    FixpointLattice,
    QuotientPoset,
    bruteforce_fixpoints,
    coequalizer_general,
    fixpoints_via_duality,
    phi_components,
)

__all__ = [
    "AntisymmetryViolation",
    "DuplicateElement",
    "FiniteLattice",
    "FixpointLattice",
    "InvalidInput",
    "LatticeHom",
    "MonotoneMap",
    "NotALattice",
    "NotDistributive",
    "NotHom",
    "NotMonotone",
    "OrderIdeal",
    "Poset",
    "QuotientNotAntisymmetric",
    "QuotientPoset",
    "SizeBoundExceeded",
    "UnknownElement",
    "bruteforce_fixpoints",
    "build_poset",
    "coequalizer_general",
    "count_ideals",
    "dual_map",
    "explicit_lattice_bound",
    "fixpoints_via_duality",
    "hom_from_dual",
    "ideal_lattice",
    "is_homomorphism",
    "is_monotone",
    "iter_ideal_masks",
    "join_irreducibles",
    "lattice_from_order",
    "lift_hom",
    "phi_components",
]

__version__ = "0.1.0"
