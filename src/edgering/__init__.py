"""Edge rings of finite graphs: matchings, edge polytopes, lattice-point
counting, and regularity bounds for normal edge rings."""

from .analysis import (
    AnalysisReport,
    SweepRow,
    Verification,
    analyze,
    question5_sweep,
    run_families,
    verify_theorem,
)
from .ehrhart import (
    BudgetExceededError,
    EhrhartProfile,
    NotNormalError,
    check_idp,
    ehrhart_profile,
    h_star,
    hilbert_function,
    idp_points,
    interior_lattice_points,
    lattice_points,
    min_interior_q,
)
from .enumeration import connected_graphs
from .graphs import (
    Graph,
    GraphParseError,
    NotConnectedError,
    attach_path,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    make_family,
    parse_graph,
    path_graph,
    render_graph,
    star_graph,
    two_triangles_path,
)
from .matching import (
    EdgeCover,
    IsolatedVertexError,
    Matching,
    matching_number,
    maximum_matching,
    min_edge_cover,
)
from .normality import enumerate_minimal_odd_cycles, is_normal, satisfies_odd_cycle_condition
from .polytope import (
    EdgePolytope,
    FacetInequality,
    InvariantViolationError,
    contains,
    edge_polytope,
    predicted_facets,
)
from .toric import Fiber, GeneratorProfile, fibers, minimal_generator_degrees

__version__ = "0.1.0"
