"""Flow polytopes of DAGs: framings, DKK triangulations, tau-tilting posets."""

from .dag import (
    ContractionTrace,
    Dag,
    classify_vertices,
    complete_contraction,
    dag_from_edge_list,
    dag_from_json,
    dag_to_json,
    enumerate_routes,
    flow_dims,
    idle_edges,
    is_full,
    is_valid,
)
from .framing import (
    CoherenceTable,
    Framing,
    count_ample_framings,
    edge_labeling,
    enumerate_ample_framings,
    exceptional_routes,
    framing_by_edge_id,
    is_ample,
    lift_framing,
    named_framing,
    path_cycle_decomposition,
)
from .gentle import (
    blossom,
    build_quiver,
    enumerate_strings,
    extend_string,
    module_to_route,
    objects_t,
    route_to_module,
    support_tau_tilting,
    tau_rigid_pair,
)
from .poset import TauPoset, build_poset
from .triangulation import dual_graph, maximal_cliques, verify_unimodular
from .ehrhart import (
    check_symmetry_unimodality,
    count_integer_flows,
    ehrhart_oracle,
    flow_count_table,
    hstar_from_counts,
    special_simplex_check,
)
from .analysis import analyze

__version__ = "0.1.0"
