"""Exact verification of twisted Hopf-algebra structures, their
Yetter-Drinfeld modules, entwining structures and braidings, all over the
rationals with structure-map representations."""

from .exactlin import (
    DimensionMismatch,
    LinearMap,
    Scalar,
    SingularMap,
    compose,
    invert,
    kron,
    rat,
    table_map,
)
from .hom_algebra import (
    AutPair,
    HomAlgebraData,
    HomCoalgebraData,
    HomHopfAlgebraData,
    HopfAutomorphism,
    InvalidStructure,
    check_antipode,
    check_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_hom_hopf,
    convolution,
    identity_automorphism,
    require,
)
from .reports import CheckItem, CheckReport, Witness
from .yd_modules import (
    BicomoduleAlgebraData,
    EntwiningData,
    HomComoduleData,
    HomModuleData,
    YDModuleData,
    build_bicomodule_algebra,
    build_canonical_yd,
    build_entwining,
    check_bicomodule_algebra,
    check_comodule_algebra,
    check_entwined_module,
    check_entwining,
    check_hom_comodule,
    check_hom_module,
    check_module_algebra,
    check_yd,
    check_yd_alt,
    check_yd_datum,
    check_yd_module,
    trivial_yd,
)
from .t_category import (
    BraidingMap,
    associator,
    braiding,
    braiding_inverse,
    check_braiding_equivariance,
    check_braiding_inverse,
    check_conjugation_invariance,
    check_hexagons,
    check_t_category,
    check_unit_constraints,
    conjugate_yd,
    group_inv,
    group_mul,
    sample_nonzero_rationals,
    tensor_yd,
)
from .h4_library import (
    H4Params,
    ZeroParameter,
    build_h4,
    build_h4_yd_table,
    golden_table_errata,
    h4_automorphism,
    h4_braiding_matrix,
)
from .defformat import (
    DefinitionError,
    DefinitionFile,
    OutOfRangeIndex,
    ParseError,
    ResolveError,
    SuiteError,
    UnboundName,
    ZeroDenominator,
    parse_definition,
    resolve_definition,
    run_checks,
    serialize_definition,
)
from .cli import emit_braiding

__all__ = [name for name in dir() if not name.startswith("_")]
