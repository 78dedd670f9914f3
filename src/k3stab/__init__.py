"""Exact K3 attractor backgrounds, the lattice mirror map, and wall certificates."""

from .exact import FieldMismatch, QuadComplex, QuadScalar, parse_quad
from .lattice import (
    GAMMA,
    MUKAI,
    GramLattice,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
    standard_k3_lattice,
    standard_mukai_lattice,
)
from .forms import BinaryEvenForm, SL2Witness, enumerate_reduced, gauss_reduce, sl2_equivalent
from .attractor import (
    Charge,
    DegenerateCharge,
    NotAttractor,
    hyperkahler_rotate,
    solve_attractor,
    threefold_central_charge,
    threefold_central_charges,
    verify_attractor,
)
from .mirror import (
    MirrorTriple,
    SplitData,
    make_split,
    mirror_class,
    mirror_classes,
    mirror_involution_check,
    mirror_period,
)
from .stability import (
    ObstructionCheck,
    StabilityPoint,
    central_charge,
    central_charges,
    fibration_obstruction,
    mukai_pair,
    ns_of_mirror,
    p0_violations,
    search_kahler_class,
    verify_reality,
    wall_intersection,
    wall_member,
)
from .scenario import Scenario, build_scenario, scenario_from_file

__version__ = "0.1.0"
