"""Groupoids of generalized inverses over finite-dimensional C*-algebras.

Subpackages
-----------
::

 linalg        -- SVD rank/norm with one relative cutoff, exact linear-map
                  matrices, joint kernels
 algebra       -- block matrix *-algebras and classification predicates
 geninv        -- Moore-Penrose inversion, reflexive inverse pairs
 groupoid      -- groupoid instances, composition, axiom verification
 geometry      -- tangent spaces, anchors, isotropy and orbit decomposition
                  from exact chart differentials
 paths         -- admissible paths on projections, reparametrization
 continuity    -- pseudo-inverse continuity experiments
 serialization -- JSON wire format for elements
 reports       -- structured experiment reports
 cli           -- command-line entry point (`ginv`)
"""

from .algebra import (
    AlgebraElement,
    ElementClass,
    classify,
    corner_compress,
    expm_element,
)
from .continuity import (
    ContinuityVerdict,
    SequenceFamily,
    continuity_experiment,
    discontinuity_demo,
    make_family,
)
from .errors import (
    CompositionError,
    ConsistencyError,
    ConvergenceError,
    DegenerateInterpolationError,
    EvaluationError,
    GinvError,
    InputError,
    OrbitError,
    PreconditionError,
    ShapeMismatchError,
    WireFormatError,
)
from .geninv import (
    GInvPair,
    PenroseResidual,
    is_ginv_pair,
    moore_penrose,
    mp_pair,
    newton_schulz,
    penrose_residuals,
    sample_ginv_pairs,
)
from .geometry import (
    AnchorData,
    TangentBasis,
    fiber_and_anchor,
    isotropy_tangent_dim,
    orbit_decompose,
    orbit_signature,
    submersion_rank_st,
    tangent_basis,
)
from .groupoid import (
    ActionArrow,
    ActionGroupoid,
    DisjointUnionGroupoid,
    GInvArrow,
    GInvGroupoid,
    Groupoid,
    IsometryArrow,
    PairArrow,
    PairGroupoid,
    PartialIsometryGroupoid,
    TaggedArrow,
    isometry_to_ginv,
    make_groupoid,
    verify_axioms,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    finite_diff_jacobian,
    joint_kernel_dim,
    numerical_rank,
    operator_norm,
)
from .paths import (
    APath,
    direct_rotation,
    nearest_projection,
    orbit_path,
    reparametrize_lift,
    smooth_reparametrizer,
)
from .reports import CheckRecord, ExperimentReport
from .serialization import parse_element, serialize_element

__version__ = "0.1.0"
