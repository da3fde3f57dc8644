"""Exact signed Eulerian-trail sums on marked digraphs, matrices over a
finitely generated exterior algebra, and the cross-check tying the two
together through the standard alternating polynomial."""

from .digraph import (GraphFormatError, MarkedDigraph, enumerate_marked_graphs,
                      extend, format_graph, make_gn, opposite, parse_graph,
                      random_feasible_graph, read_graph_file, surgery_in,
                      surgery_out, validate, write_graph_file)
from .grassmann import (GrassmannElement, GrassmannMatrix, ShapeError,
                        SimplifiedBasisTuple, mat_mul,
                        simplify_basis_tuple, standard_polynomial,
                        standard_polynomial_basis_row, substitute_generators)
from .trails import (AtPosition, BudgetExceededError, Precedes,
                     SignedSumReport, Subtrail, check_constraint, filtered_signed_sum,
                     invert_permutation, is_trail, marked_order_sign, relabel,
                     sgn_perm, sigma_M, signed_sum, signed_trails, swan_identity,
                     swap_parallel_subtrails, trail_signs)
from .bridge import (ClassSearch, CrossCheckReport, cross_check, graph_basis,
                     graph_matrices, search_classes)

__all__ = [
    "AtPosition", "BudgetExceededError", "ClassSearch", "CrossCheckReport",
    "GraphFormatError", "GrassmannElement", "GrassmannMatrix",
    "MarkedDigraph", "Precedes", "ShapeError",
    "SignedSumReport", "SimplifiedBasisTuple", "Subtrail",
    "check_constraint", "cross_check", "enumerate_marked_graphs",
    "extend", "filtered_signed_sum",
    "format_graph", "graph_basis", "graph_matrices",
    "invert_permutation", "is_trail", "make_gn", "marked_order_sign",
    "mat_mul", "opposite", "parse_graph", "random_feasible_graph",
    "read_graph_file", "relabel", "search_classes", "sgn_perm", "sigma_M",
    "signed_sum", "signed_trails", "simplify_basis_tuple", "standard_polynomial",
    "standard_polynomial_basis_row", "substitute_generators", "surgery_in", "surgery_out",
    "swan_identity", "swap_parallel_subtrails", "trail_signs", "validate", "write_graph_file",
]

__version__ = "0.1.0"
