"""The paper's primary contribution: distances and optimal routing.

Re-exports the high-level names; see the submodules for the full APIs:

* :mod:`repro.core.word` — d-ary words and shift operations,
* :mod:`repro.core.packed` — words as base-d ints with O(1) shift arithmetic,
* :mod:`repro.core.matching` — Algorithm 3 (Morris–Pratt matching functions),
* :mod:`repro.core.distance` — Property 1 and Theorem 2 distance functions,
* :mod:`repro.core.batch` — batch/streaming distance engines over packed words,
* :mod:`repro.core.suffix_tree` — compact suffix trees (Weiner/Ukkonen),
* :mod:`repro.core.routing` — Algorithms 1, 2 and 4, plus the RouteCache,
* :mod:`repro.core.average_distance` — Equation (5) and Figure 2 numerics.
"""

from repro.core.average_distance import (
    directed_average_distance_closed_form,
    directed_average_distance_exact,
    undirected_average_distance_exact,
    undirected_average_distance_sampled,
)
from repro.core.batch import (
    average_distance_packed,
    directed_distances_many,
    distance_matrix,
    distances_row,
    equation5_crosscheck,
    undirected_distances_many,
)
from repro.core.packed import PackedSpace
from repro.core.distance import (
    UndirectedWitness,
    directed_distance,
    undirected_distance,
    undirected_witness,
)
from repro.core.paths import (
    all_shortest_paths,
    count_shortest_paths,
    random_shortest_path,
)
from repro.core.routing import (
    Direction,
    Path,
    RouteCache,
    RoutingStep,
    apply_path,
    format_path,
    parse_path,
    path_words,
    route,
    shortest_path_undirected,
    shortest_path_unidirectional,
    verify_path,
)
from repro.core.suffix_tree import GeneralizedSuffixTree, SuffixTree
from repro.core.word import (
    Word,
    WordTuple,
    iter_words,
    parse_word,
    random_word,
)

__all__ = [
    "Direction",
    "GeneralizedSuffixTree",
    "PackedSpace",
    "Path",
    "RouteCache",
    "RoutingStep",
    "SuffixTree",
    "UndirectedWitness",
    "Word",
    "WordTuple",
    "all_shortest_paths",
    "apply_path",
    "average_distance_packed",
    "count_shortest_paths",
    "random_shortest_path",
    "directed_distances_many",
    "distance_matrix",
    "distances_row",
    "equation5_crosscheck",
    "undirected_distances_many",
    "directed_average_distance_closed_form",
    "directed_average_distance_exact",
    "directed_distance",
    "format_path",
    "iter_words",
    "parse_path",
    "parse_word",
    "path_words",
    "random_word",
    "route",
    "shortest_path_undirected",
    "shortest_path_unidirectional",
    "undirected_average_distance_exact",
    "undirected_average_distance_sampled",
    "undirected_distance",
    "undirected_witness",
    "verify_path",
]
