"""Exact analysis of longest-path intersections in small graphs.

The package computes, for a connected graph and a set of three longest
paths, the minimum over vertices of the summed distances to the three
paths, together with the supporting quantities (exclusive-vertex counts,
crossing counts, pairwise intersection sizes), all read off the paths'
vertex masks. It checks every claim of the surrounding theory on
exhaustive small-graph corpora and on user-supplied graphs, and it builds
and brute-force-verifies the pendant-plus-subdivision construction that
scales the parameter linearly.
"""

from .claims import (
    CONJECTURE_CLAIMS,
    HOLDS,
    PROVEN_CLAIMS,
    SKIPPED_BUDGET,
    SKIPPED_TRUNCATED,
    VACUOUS,
    VIOLATED,
    ClaimVerdict,
    TRIPLE_CLAIMS,
    TruncatedEnumerationError,
    check_prop1,
    check_triple,
    gallai_vertex_set,
)
from .generate import generate_connected_graphs
from .graphs import (
    Graph,
    Graph6Error,
    format_edge_list,
    from_edge_list,
    graph_key,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .paths import (
    BudgetError,
    DEFAULT_PATH_CAP,
    LongestPathTable,
    Path,
    enumerate_longest_paths,
    longest_path_length,
)
from .scan import (
    ALL_CHECKS,
    ScanConfig,
    ScanReport,
    analyze_one,
    emit_report,
    report_json,
    scan,
    subdivision_sweep,
)
from .subdivision import (
    PendantExtension,
    SubdividedInstance,
    Subdivisions,
    attach_pendants,
    build_instance,
    check_size_bound,
    restrict_to_triple,
    subdivide,
    verify_proposition,
)
from .triples import (
    PathTriple,
    TripleAnalysis,
    TripleAnalyzer,
    TripleStream,
    analyze_triple,
    f_value,
    t_count,
)

__version__ = "0.1.0"
