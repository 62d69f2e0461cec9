"""Exact computer algebra for modules over truncated polynomial rings
k[X_1..X_r]/(X_i^p): Jordan types, constant Jordan type decisions, generic
kernel filtrations, and Grothendieck splitting types of the associated
subquotient bundles on the projective line.
"""

from .errors import ConsistencyError, InputError, KemodError, MathRefusal
from .gf import FieldCtx, FieldScalar
from .subspace import Subspace, column_space, kernel_space, row_space
from .snf import smith_normal_form
from .modules import (
    CJTDecision,
    JordanType,
    JRankDecision,
    KEModule,
    PointSpec,
    constant_jordan_type,
    constant_jrank_decide,
    direct_sum,
    dual,
    free_module,
    from_presentation,
    generic_power_ranks,
    jordan_type,
    loewy_length,
    quotient_module,
    radical,
    radical_series,
    restrict,
    socle,
    socle_series,
    sub_as_module,
    subquotient,
    syzygy,
    trivial_module,
    w_module,
    x_alpha,
)
from .genker import (
    EqualImagesDecision,
    FiltrationLayer,
    GenericKernelReport,
    equal_images_decide,
    equal_n_images_decide,
    filtration_layer,
    generic_kernel,
    generic_kernel_filtration,
    generic_kernel_power,
    generic_image_power,
    inclusion_chain_check,
    j_inverse,
    j_power,
    layer_module,
)
from .sheaf import (
    ChowClass,
    SplittingType,
    chern_of_splitting,
    chern_of_twist,
    filtration_chern_check,
    fi_slice_dims,
    line_restriction_splitting,
    monomials,
    splitting_type,
    theta_matrix,
    whitney_product,
)
from .decomp import Decomposition, HomSpace, IsoVerdict, decompose, hom_space, iso_probe
from .io import load_fixture, load_module, module_from_dict, module_to_dict, save_module

__version__ = "0.1.0"
