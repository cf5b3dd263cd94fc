"""Exact computation with quasitriangular Hopf algebras and comodule
algebras: axiom checkers, braidings, factorizability of the associated
braided module categories, and the canonical example constructions."""

from .algebras import StructAlgebra, StructCoalgebra, check_algebra, check_coalgebra
from .comodule import (
    BModule,
    ComoduleAlgebra,
    EndSpace,
    KMatrix,
    SimplicityVerdict,
    WeakFactorizability,
    check_braided_module,
    check_comodule_algebra,
    check_k_matrix,
    compute_end_space,
    costable_closure,
    h_simplicity,
    is_factorizable_comodule,
    module_braiding,
    omega_copairing,
    regular_bmodule,
    theta_comodule,
    theta_module_category,
    weak_factorizability,
    z2_membership,
)
from .constructions import (
    ExampleBundle,
    ReflectiveAlgebraData,
    drinfeld_double_group,
    dual_group_algebra,
    group_algebra,
    monodromy_k_matrix,
    named_example,
    reflective_algebra,
    registry_names,
    regular_comodule,
    subgroup_comodule,
    sweedler_h4,
    sweedler_r_matrix,
    trivial_comodule,
    trivial_k_matrix,
)
from .errors import (
    BundleFormatError,
    FieldMismatch,
    HopffactError,
    ImageEscapesEndSpace,
    InconsistentSystem,
    NoAntipode,
    NotInvertible,
    SpaceMismatch,
    UnknownExample,
)
from .fields import GF, QQ, Field, field_from_spec, field_to_spec
from .groups import FiniteGroup, cyclic_group, group_by_name, symmetric_group
from .hopf import (
    HModule,
    HopfAlgebra,
    check_hopf,
    check_module,
    dual_hopf,
    make_hopf,
    module_dual,
    module_evaluation,
    module_coevaluation,
    module_tensor,
    regular_module,
    solve_antipode,
    trivial_module,
)
from .linalg import LINALG_STATS, BasedSpace, MapMatrix
from .rmatrix import (
    DrinfeldMap,
    RMatrix,
    braiding_matrix,
    braiding_inverse_matrix,
    check_hexagon,
    check_r_matrix,
    drinfeld_map,
    is_factorizable_hopf,
    is_triangular,
    r_matrix,
    trivial_r_matrix,
)
from .tensors import TensorElement, leg_embed, tensor_invert, tensor_mult, tensor_unit
from .verdicts import Verdict

__version__ = "0.1.0"
