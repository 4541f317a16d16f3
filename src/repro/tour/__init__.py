"""Transition-tour generation over the enumerated state graph (section 3.3).

The algorithm is the paper's Fig. 3.3 greedy generator: depth-first
traversal of untraversed arcs, an *explore* phase that splices in shortest
paths to remaining untraversed arcs (re-traversing arcs is cheap in
simulation, backtracking is not), restarts from reset, and an optional
per-trace instruction limit.  :class:`IndexedTourGenerator` runs it on a
CSR graph with an exact distance index.  A classical
Chinese-Postman/Euler-tour solver is included as the optimal-length
baseline for the ablation benchmarks.
"""

from repro.tour.fig33 import Tour, TourSet, TourStats
from repro.tour.indexed import IndexedTourGenerator
from repro.tour.coverage import (
    arc_coverage,
    coverage_curve,
    CoveragePoint,
    CoverageReport,
)
from repro.tour.postman import (
    chinese_postman_tour,
    euler_tour,
    is_eulerian,
    postman_lower_bound,
    PostmanError,
)
from repro.tour.conformance import (
    conformance_suite,
    run_conformance,
    uio_sequences,
    ConformanceSuite,
    ConformanceVerdict,
)

__all__ = [
    "conformance_suite",
    "run_conformance",
    "uio_sequences",
    "ConformanceSuite",
    "ConformanceVerdict",
    "IndexedTourGenerator",
    "Tour",
    "TourSet",
    "TourStats",
    "arc_coverage",
    "coverage_curve",
    "CoveragePoint",
    "CoverageReport",
    "chinese_postman_tour",
    "euler_tour",
    "is_eulerian",
    "postman_lower_bound",
    "PostmanError",
]
