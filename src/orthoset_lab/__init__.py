"""Exact Hermitian linear algebra over involutive skew fields, the ray-level
orthogonality structures it induces, and constructive two-way translation
between maps on the two sides."""

from .errors import (
    CertificateError,
    DependencyError,
    InconsistencyError,
    InputError,
    NotInducedError,
    NotOrthoisoError,
    NotPartialOrthometryError,
    OrthogonalityViolationError,
    OrthosetLabError,
    ParseError,
    PreconditionError,
    UnsupportedVariantError,
)
from .scalars import GaussianRational, RationalQuaternion
from .starfields import SfieldMorphism, StarSfield
from .hermspace import (
    HermitianSpace,
    PartialIsometryDescriptor,
    SemilinearMap,
    Subspace,
    SubspaceFrame,
    Vector,
    adjoint_linear,
    between_frames,
    compose_maps,
    generalized_inverse,
    gram_schmidt,
    herm_form,
    invert_semilinear,
    is_quasiunitary,
    is_unitary,
    make_partial_isometry,
    quasi_generalized_inverse,
    scalar_ratio,
    standard_space,
)
from .orthoset import (
    ProbeSet,
    Ray,
    RayMap,
    check_axioms,
    compose_ray_maps,
    dacey_witness,
    linearity_witness,
    perp_closure,
    probe_rays_in,
    ray_of,
    ray_perp,
    rays_of,
    verify_adjoint_pair,
)
from .correspondence import (
    CoordinatizationResult,
    PartialOrthometryDecomposition,
    TransportResult,
    WignerResult,
    coordinatize,
    decompose_partial_orthometry,
    induce,
    partial_wigner,
    piziak_lambda,
    transport_linear,
    transport_partial,
    transport_unitary,
    wigner_reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
