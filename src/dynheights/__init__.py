"""Canonical heights and potential theory for dynamical systems on the
projective line over Q: exact place-by-place arithmetic, Mahler measures,
metrized-graph curvature, and Hodge-index height lower bounds.
"""

from .bounds import (EmpiricalMeasure, energy_arch_power, energy_level_curve,
                     pair_bound_power, preimage_measure_stats,
                     roots_of_unity_height_sequence, scan_exceptions,
                     star_discrepancy_angles)
from .dynamics import (DynSystem, GreenLedger, canonical_height,
                       common_preperiodic_scan, escape_threshold,
                       green_ledger, is_preperiodic, local_green,
                       rational_points_up_to_height)
from .errors import (DegenerateMapError, DynheightsError, GraphShapeError,
                     InvalidPointError, ParseError, RootFindingError,
                     UndefinedLogError, WorkBudgetError)
from .graphs import (DiscreteMeasure, MetrizedGraph, PLFunction,
                     VertexDivisor, circle_haar_measure, curvature,
                     dirichlet_energy, laplacian_pl, load_graph_json,
                     subdivide)
from .mahler import (MahlerResult, height_from_minpoly, log_mahler_plus,
                     mahler_via_quadrature, mahler_via_roots)
from .places import (ARCH, Place, ProjPointQ, log_abs_at, parse_point,
                     parse_rational, valuation, weil_height,
                     weil_height_exact)
from .polys import HomogPair, Poly, parse_expr, parse_map, parse_poly, resultant
from .roots import ComplexApprox, aberth, complex_roots

__version__ = "0.1.0"
