"""Homological scaffolds of weighted networks.

Skeletonize a weighted network by the cycles that carry its
1-dimensional homology: the classical persistence-generator scaffold
("loose") and the per-step minimum-basis scaffold ("minimal"), the
latter with exact detection of tied representatives. Includes seeded
random-network families and a statistical harness for comparing
scaffold variants against null models.
"""

from .graph import (
    Filtration,
    GraphFormatError,
    WeightedGraph,
    build_filtration,
    make_graph,
    orient_filtration,
    parse_adjacency,
    parse_edge_list,
    serialize_edge_list,
)
from .complexes import FlagComplex2, flag_complex_at
from .persistence import (
    Barcode,
    PersistencePair,
    bars_alive_at,
    compute_persistence,
)
from .minbasis import (
    Cycle,
    MinimalBasisWithDraws,
    PathologyEvent,
    VariantSet,
    annotate_edges,
    min_basis_with_draws,
)
from .scaffold import (
    Scaffold,
    loose_scaffold,
    minimal_scaffold,
    minimal_scaffold_with_draws,
    node_strength,
    rank_nodes,
    scaffold_to_csv,
    step_bases,
)
from .randnet import (
    GeneratorConfig,
    correlation_graph,
    gen_er_null,
    gen_rgg,
    gen_ws_weighted,
    generate,
    spectral_rotation_null,
)
from .stats import (
    ComparisonReport,
    MetricReport,
    compare_scaffolds,
    graph_metrics,
    ks_two_sample,
    pearson,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "Filtration",
    "GraphFormatError",
    "WeightedGraph",
    "build_filtration",
    "make_graph",
    "orient_filtration",
    "parse_adjacency",
    "parse_edge_list",
    "serialize_edge_list",
    "FlagComplex2",
    "flag_complex_at",
    "Barcode",
    "PersistencePair",
    "bars_alive_at",
    "compute_persistence",
    "Cycle",
    "MinimalBasisWithDraws",
    "PathologyEvent",
    "VariantSet",
    "annotate_edges",
    "min_basis_with_draws",
    "Scaffold",
    "loose_scaffold",
    "minimal_scaffold",
    "minimal_scaffold_with_draws",
    "node_strength",
    "rank_nodes",
    "scaffold_to_csv",
    "step_bases",
    "GeneratorConfig",
    "correlation_graph",
    "gen_er_null",
    "gen_rgg",
    "gen_ws_weighted",
    "generate",
    "spectral_rotation_null",
    "ComparisonReport",
    "MetricReport",
    "compare_scaffolds",
    "graph_metrics",
    "ks_two_sample",
    "pearson",
    "spearman",
    "__version__",
]
