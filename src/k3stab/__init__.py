"""Exact K3 attractor backgrounds, the lattice mirror map, and wall certificates."""

from .exact import FieldMismatch, QuadComplex, QuadScalar, parse_quad, qs_sign
from .lattice import (
    GAMMA,
    MUKAI,
    MUKAI_W,
    MUKAI_WSTAR,
    ComplexVector,
    GramLattice,
    LatticeVector,
    MukaiVector,
    Sublattice,
    orth_complement,
    pair,
    signature,
    standard_k3_lattice,
    standard_mukai_lattice,
)
from .forms import BinaryEvenForm, SL2Witness, enumerate_reduced, gauss_reduce, sl2_equivalent
from .attractor import (
    AttractorData,
    Charge,
    DegenerateCharge,
    NotAttractor,
    hyperkahler_rotate,
    ns_lattice,
    solve_attractor,
    threefold_central_charge,
    verify_attractor,
    z_k3,
)
from .mirror import (
    MirrorTriple,
    SplitData,
    make_split,
    mirror_class,
    mirror_involution_check,
    mirror_period,
    period_embed,
    tube_map,
)
from .stability import (
    ObstructionCheck,
    SearchParams,
    StabilityPoint,
    central_charge,
    exp_point,
    fibration_obstruction,
    is_positive_plane,
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
