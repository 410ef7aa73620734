"""Tame Coxeter friezes over finite fields.

Construction and verification of friezes from their first rows, exhaustive
enumeration (naive and meet-in-the-middle), exact closed-form counts,
brute-force moduli-space orbit counting with the frieze/configuration
correspondence, and restricted cyclic set partitions.
"""

from .errors import (
    BudgetExceeded,
    CriterionFails,
    DescriptorError,
    FriezeError,
    InvalidWidth,
    NonIntegralResult,
    NonPrimeCharacteristic,
    NotLiftable,
    OddN,
    OddNWithSignFilter,
    ReducibleModulus,
)
from .frieze import (
    FirstRow,
    Frieze,
    NotAFrieze,
    TamenessReport,
    check_tame,
    dihedral_canonical,
    frieze_from_first_row,
    matrix_criterion,
    parse_frieze_json,
    render_frieze,
)
from .gf import (
    FieldElement,
    FieldSpec,
    Mat2,
    ProjPoint,
    parse_field_descriptor,
)
from .moduli import (
    Configuration,
    FirstRowClass,
    Lift,
    OrbitSummary,
    SignClass,
    configuration_to_frieze,
    enumerate_configurations,
    frieze_to_configuration,
    lift_configuration,
    pgl2_orbit_count,
    sign_class,
)
from .search import (
    EnumerationResult,
    SearchConfig,
    catalog_orbits,
    enumerate_friezes,
    verify_count_formula,
)

__version__ = "0.1.0"
