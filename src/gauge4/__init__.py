"""Suspension splittings and gauge-group decompositions for closed
orientable smooth 4-manifolds, with a Smith-normal-form homology engine
for cross-checking and gcd-based homotopy-equivalence classification."""

from .classifier import (
    ClassRule,
    EquivalenceVerdict,
    LieGroupSpec,
    classify,
    classify_base,
    parse_group,
)
from .decomposer import (
    Decomposition,
    DecompositionError,
    decompose,
    mixed_decomposition,
    render_decomposition,
)
from .homology import (
    ChainComplexError,
    GradedAbelianGroup,
    IntMatrix,
    chain_homology,
    homology_of_manifold,
    homology_of_term,
    parse_matrix,
    smith_normal_form,
    suspend,
)
from .manifold import (
    InvalidSpecError,
    ManifoldSpec,
    Pi1Descriptor,
    Pi1Kind,
    classify_pi1,
    connected_sum,
    manifold,
    parse_pi1,
    render_pi1,
    stabilize,
)
from .terms import (
    SYMBOLIC,
    Moore,
    SpaceTerm,
    Sphere,
    SuspCP2,
    TermError,
    Wedge,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "ChainComplexError",
    "ClassRule",
    "Decomposition",
    "DecompositionError",
    "EquivalenceVerdict",
    "GradedAbelianGroup",
    "IntMatrix",
    "InvalidSpecError",
    "LieGroupSpec",
    "ManifoldSpec",
    "Moore",
    "Pi1Descriptor",
    "Pi1Kind",
    "SYMBOLIC",
    "SpaceTerm",
    "Sphere",
    "SuspCP2",
    "TermError",
    "Wedge",
    "chain_homology",
    "classify",
    "classify_base",
    "classify_pi1",
    "connected_sum",
    "decompose",
    "homology_of_manifold",
    "homology_of_term",
    "manifold",
    "mixed_decomposition",
    "parse_group",
    "parse_matrix",
    "parse_pi1",
    "render",
    "render_decomposition",
    "render_pi1",
    "smith_normal_form",
    "stabilize",
    "suspend",
]
