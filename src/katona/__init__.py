"""Exact combinatorics of union-bounded set families.

Subsets of [n] are machine-word bitmasks; families are canonical tuples of
masks; all arithmetic is exact (int / Fraction).  Submodules: core types
and predicates, compression operators, named family constructions, lattice
walks, closed-form bounds, and certificate-producing search.
"""

from .core import (
    SetFamily, CapExceeded, family_from_sets, family_from_json,
    family_to_json, mask_of, elements_of,
    is_t_intersecting, is_u_union, is_cross_t_intersecting, is_complex,
    complement_family, layer, at_least, down_closure, shadow, diameter,
    avoid, trace,
)
from .transforms import (
    ShiftLog, shift_ij, make_initial, make_initial_pair, is_initial,
    precedes, down_shift, make_complex_by_downshift, left_translate, replay,
)
from .constructions import (
    ConstructionSpec, construct, katona, katona_star, katona_x, full_star,
    hilton_milner, triangle, b_family, d_even, d_2r, d_odd5, g_family, ball,
    lex_segment, lex_rank,
)
from .walks import (
    WalkTrace, walk_of_set, hits_line, reflection_count, brute_hit_count,
    family_walks_hit,
)
from .bounds import (
    BoundReport, binom, katona_bound, ekr_bound, hm_bound, overflow_bound,
    upper_layer_bound, diversity_formula, walk_gap_bound, walk_skip_bound,
    key_ratio_holds, d_even_overflow, d_even_gap, d_even_gap_closed_form,
    d2r_upper_count, d2r_gap, crossover_quintic, sperner_cross_check,
    shadow_bound_check, layer_bound, layer_bound_refined, verify_hilton,
    complete_intersection_bound, near_base_overflow,
)
from .search import (
    SearchOptions, SearchCertificate, maximize, recheck,
    overflow_even_of, overflow_odd_of, katona_overflow_of, diametral_overflow,
)

__version__ = "0.1.0"
