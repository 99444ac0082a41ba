"""Exact-arithmetic T-duality engine for circle bundles and semi-free actions."""

from .borel import (
    BorelBundle,
    SemiFreeSpace,
    bunke_route_dual,
    mathai_wu_dual,
    mayer_vietoris_glue,
    multi_monopole_dual,
    stability_check,
    truncated_borel,
)
from .catalog import CatalogModel, catalog_build, euler_model_from_label_coeffs
from .complexes import (
    CochainMap,
    CohomologyGroup,
    GradedComplex,
    class_coordinates,
    cohomology,
    direct_sum,
    mapping_cone,
    tensor_product,
    validate_complex,
)
from .errors import InternalCheckError, ParseError, PreconditionError, TdualityError
from .gysin import (
    CupStructure,
    EulerModel,
    fiber_integration,
    gysin_sequence,
    pullback,
    total_space,
    zero_euler_model,
)
from .matrices import (
    IntMatrix,
    SNFDecomposition,
    hermite_normal_form,
    smith_normal_form,
    solve_integer_system,
)
from .simplicial import (
    Cochain,
    SimplicialComplex,
    cochain_complex_of,
    cup_operator,
    cup_product,
    from_facets,
)
from .tdual import (
    TDualResult,
    TDualityTriple,
    canonical_flux_rep,
    double_dual_check,
    dualize,
    push_flux,
    triple,
    triple_from_flux_coords,
)

__version__ = "0.1.0"
