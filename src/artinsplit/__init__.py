"""Free splittings and residual-finiteness certificates for Artin groups.

The library takes a labelled defining graph, orients its edges, builds the
level graphs of the associated presentation complex, and extracts from them
a splitting of the group over finite-rank free subgroups.  Fiber products
of the resulting immersions drive the residual-finiteness certifier.
"""

from .multigraph import (
    ColoredGraph,
    DisconnectedError,
    Edge,
    StructureError,
    Walk,
    blocks,
    bouquet,
    connected_components,
    free_rank,
    is_immersion,
)
from .defining_graph import (
    DefiningEdge,
    DefiningGraph,
    InvalidDefiningGraph,
    OrientationReport,
    SchemaError,
    enumerate_cycles,
    require_valid,
    validate,
)
from .orientation import (
    AdmissibilityVerdict,
    SearchSpaceError,
    WitnessCycle,
    check_witness,
    find_admissible_orientation,
    is_admissible,
    oracle_almost_misdirected,
)
from .horizontal import (
    CollapsedQuarter,
    HorizontalFamily,
    InadmissibleOrientation,
    SplittingCertificate,
    build_collapsed,
    build_family,
    compute_splitting,
)
from .fiber import (
    FiberInputError,
    FiberProduct,
    MonochromeVerdict,
    OppressiveWords,
    fiber_product,
    monochrome_check,
    oppressive_set,
)
from .certify import RFCertificate, certify

__all__ = [
    "AdmissibilityVerdict",
    "CollapsedQuarter",
    "ColoredGraph",
    "DefiningEdge",
    "DefiningGraph",
    "DisconnectedError",
    "Edge",
    "FiberInputError",
    "FiberProduct",
    "HorizontalFamily",
    "InadmissibleOrientation",
    "InvalidDefiningGraph",
    "MonochromeVerdict",
    "OppressiveWords",
    "OrientationReport",
    "RFCertificate",
    "SchemaError",
    "SearchSpaceError",
    "SplittingCertificate",
    "StructureError",
    "Walk",
    "WitnessCycle",
    "blocks",
    "bouquet",
    "build_collapsed",
    "build_family",
    "certify",
    "check_witness",
    "compute_splitting",
    "connected_components",
    "enumerate_cycles",
    "fiber_product",
    "find_admissible_orientation",
    "free_rank",
    "is_admissible",
    "is_immersion",
    "monochrome_check",
    "oppressive_set",
    "oracle_almost_misdirected",
    "require_valid",
    "validate",
]
