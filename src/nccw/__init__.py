"""Exact K-theory and periodic cyclic homology of noncommutative CW complexes.

The package is organized around one pipeline: a tower of stages
(:mod:`nccw.cellmodel`) yields a cellular cochain complex, the engine
(:mod:`nccw.ssengine`) runs its filtration spectral sequence page by page,
and the assembly reports the 2-periodic theory groups with honest
extension flags.  :mod:`nccw.exacthom` supplies the exact integer linear
algebra underneath, :mod:`nccw.constructions` the suspension and the
mapping cone, and :mod:`nccw.fibration` the coefficient spectral
sequence of a fibration replacement.  :mod:`nccw.cli` is the
command-line front end.
"""

from .errors import (
    CertificateFailed,
    ComplexViolation,
    EndpointPairAtHigherStage,
    InvalidMorphism,
    NCCWError,
    NotACocycleMap,
    OutOfRange,
    ShapeMismatch,
    SizeOverflow,
    UnresolvedExtension,
)
from .exacthom import (
    CochainComplex,
    FGAbelianGroup,
    IntMatrix,
    all_cohomology,
    cohomology_with_coefficients,
    intmat,
    reduce_complex,
    smith_normal_form,
)
from .findim import (
    THEORY_HP,
    THEORY_K,
    FinDimAlgebra,
    MultMorphism,
    compose,
    theory_groups,
    validate_morphism,
)
from .cellmodel import (
    EndpointPair,
    NCCWComplex,
    NCCWStage,
    ProvidedCoboundary,
    boundary_from_endpoints,
    build,
    cochain_complex,
    euler_characteristic,
    from_classical_cw,
    skeleton,
)
from .ssengine import (
    Assembly,
    Page,
    SpectralSequence,
    assemble,
    compute_theories,
    e_infinity,
    from_cellular,
    set_higher_differential,
    stabilize,
    turn_page,
)
from .constructions import (
    CellularMorphism,
    mapping_cone_complex,
    relative_assemblies,
    suspend,
)
from .fibration import (
    compute_total,
    leray_serre_e2,
    relative_coefficients,
)

__version__ = "0.1.0"
