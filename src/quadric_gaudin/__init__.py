"""Desk-scale exact toolkit for the integrable system on the cotangent
bundle of an n-dimensional intersection of two quadrics: Gaudin-type
Hamiltonians, separation of variables, the very-stable / wobbly dichotomy
with constructive nilpotent witnesses, commuting second-order operators,
and the rank-2 orthogonal-pencil model."""

from .scalars import GaussianRational, gr
from .unipoly import Polynomial, resultant, roots
from .multipoly import MultiPoly, quadric, reduce_mod_quadrics, weighted_quadric
from .linalg import Matrix, rank_kernel
from .phase import (
    Pencil,
    PhasePoint,
    gauge_shift,
    pair_invariant,
    poisson_bracket,
    sample_pencil_point,
    sample_phase_point,
    sample_point_x,
    sample_point_y,
)
from .higgs import (
    HeckeTriple,
    HiggsField,
    build_phi,
    hamiltonians,
    hecke_transform,
    infinity_expansion,
    is_nilpotent,
    reduced_tr_phi_squared,
    spectral_polynomial,
)
from .sov import (
    SeparatedData,
    auxiliary_poly,
    eigenvalues,
    hamiltonians_via_sov,
    minor_identity_check,
    point_from_polynomial,
    separate,
    sov_matrix,
)
from .verystable import (
    StabilityVerdict,
    classify,
    nilpotent_witness,
    properness_probe,
    witness_system,
)
from .diffops import (
    apply_Delta,
    apply_X,
    canonical_twist,
    verify_commutation,
    verify_descent,
    verify_kohno_drinfeld,
)
from .orthomodel import (
    PencilForm,
    build_A,
    lift_vz,
    trivial_subbundle_probe,
    verify_equivalence,
)

__version__ = "0.1.0"
