"""spinbits: exact spinor algebra over binary-coded bases.

Clifford multiplication as bit flips with powers of i, exact scalar
arithmetic in Q(i, sqrt2, sqrt3), half-spinor and real representations,
the order-3 outer automorphism at stage 8 with its g2 fixed algebra,
octonion and quaternion multiplication tables, and maximal systems of
orthonormal tangent vector fields on spheres.
"""

from .scalars import Angle, Scalar
from .spinors import (
    Spinor,
    chirality,
    hermitian,
    real_form_basis,
    real_structure,
    signs_from_index,
)
from .clifford import (
    CliffordElem,
    clifford_apply,
    delta_iso,
    exp_bivector,
    lambda_vector,
    volume_element,
    word_apply,
)
from .matrices import (
    Matrix,
    Subspace,
    e_basis_decompose,
    kappa_matrix,
    kappa_pm_matrix,
    lambda_matrix,
    real_rep_matrix,
    tensor_oracle,
)
from .triality import (
    build_outer,
    center_images,
    eigenspace,
    g2_action_matrix,
    g2_generators,
    g2_structure,
    group_automorphism,
    s3_relations,
)
from .forms import ExtForm, dualize_endomorphism, g2_three_form, omega_square, spin7_four_form, wedge
from .octonions import Octonion, algebra_checks, octonion_mul, octonion_table, quaternion_table
from .fields import (
    FieldSystem,
    build_field_system,
    emit_coordinates,
    hurwitz_radon,
    irrep_info,
    max_stage,
)

__version__ = "0.1.0"
