"""Numerical toolkit for candidate point-localized states of massless particles.

Builds momentum-helicity amplitude families with exact rotation and
translation actions, radiation-gauge polarization machinery, and an
equal-time overlap engine that exposes both the quantum-mechanical scalar
product and the label-summed alternative pairing, together with their
closed-form kernels and a brute-force quadrature oracle.
"""

from .rotations import (
    J_MAX,
    require_rotation_matrix,
    rotation_from_axis_angle,
    small_d_matrix,
    spherical_to_cartesian,
    standard_rotation,
    wigner_D,
    wigner_angle,
)
from .states import (
    AXES,
    CARTESIAN3,
    CARTESIAN_PHOTON,
    FAMILY_KINDS,
    RADIATION_GAUGE,
    SCALAR,
    SPHERICAL3,
    SPHERICAL_PHOTON,
    LocalizedState,
    StateFamily,
    make_localized_state,
    momentum_amplitude,
    rotate_state,
    translate_state,
)
from .polarization import (
    field_strength,
    helicity_sum_matrix,
    longitudinal_projector,
    minkowski_dot,
    polarization_vectors,
    transverse_helicity_sum_closed_form,
    transverse_outer_product,
    validate_helicities,
    wave_four_vector,
)
from .overlap import (
    KernelMatrix,
    QuadratureSpec,
    alt_overlap,
    brute_force_kernel_matrix,
    brute_force_overlap,
    gaussian_delta,
    general_j_defect,
    overlap_kernel_matrix,
    qm_overlap,
    transverse_kernel,
)

__version__ = "0.1.0"
