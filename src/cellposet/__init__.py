"""Simplicial cell decompositions of manifolds from edge-colored
multigraphs: face/h/h''-vectors, GF(2) homology, dipole reductions, and
h-vector characterizations."""

from .graphs import (ColoredGraph, graph_to_dot, graph_to_json,
                     require_admissible, validate_admissible)
from .posets import (SimplicialPoset, f_vector, from_graph, h_vector,
                     is_pseudomanifold, is_pure, poset_to_json)
from .homology import (betti_gf2, h_double_prime, is_homology_manifold,
                       validate_poset)
from .constructions import (boundary_of_simplex, connected_sum,
                            cross_polytope_quotient, parallel_edges_graph,
                            product_spheres_graph)
from .reduction import (CancellationError, cancellation_schedule,
                        greedy_reduce, reduce_product_spheres, run_schedule)
from .checkers import (CheckResult, check_manifold_h, check_rp_h,
                       check_sphere_h)

__all__ = [name for name in dir() if not name.startswith("_")]
