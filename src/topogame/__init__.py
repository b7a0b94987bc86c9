"""Finite-model laboratory for clopen selection games on small topological
spaces: exact bounded-horizon solving of the open/clopen cover games and
the point/quasi-component games, strategy translations, and exhaustive
theorem checks over all labeled topologies up to four points."""

from .covers import (
    Cover,
    MenuFamily,
    point_base_family,
    reduced_covers,
)
from .games import (
    GameSpec,
    Strategy,
    Transcript,
    Verdict,
    make_mildly_rothberger,
    make_point_clopen,
    make_point_open,
    make_quasi_component_clopen,
    make_rothberger,
    solve,
    verify_winning,
    winners,
)
from .lab import (
    ExtractionResult,
    TranslationReport,
    b3_markov_strategy,
    extract_qs_tree,
    translate_b1,
)
from .topology import (
    ClopenAlgebra,
    FiniteSpace,
    Partition,
    clopen_algebra,
    components,
    enumerate_topologies,
    is_zero_dimensional,
    minimal_open_nbhd,
    quasi_components,
    validate_topology,
)

__all__ = [
    "ClopenAlgebra",
    "Cover",
    "ExtractionResult",
    "FiniteSpace",
    "GameSpec",
    "MenuFamily",
    "Partition",
    "Strategy",
    "Transcript",
    "TranslationReport",
    "Verdict",
    "b3_markov_strategy",
    "clopen_algebra",
    "components",
    "enumerate_topologies",
    "extract_qs_tree",
    "is_zero_dimensional",
    "make_mildly_rothberger",
    "make_point_clopen",
    "make_point_open",
    "make_quasi_component_clopen",
    "make_rothberger",
    "minimal_open_nbhd",
    "point_base_family",
    "quasi_components",
    "reduced_covers",
    "solve",
    "translate_b1",
    "validate_topology",
    "verify_winning",
    "winners",
]

__version__ = "0.1.0"
