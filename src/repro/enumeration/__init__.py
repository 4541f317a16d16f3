"""Full state enumeration of Synchronous Murphi models (paper section 3.2).

Breadth-first reachability from the reset state over all combinations of
abstract-model choices, producing the complete control state graph from
which transition tours are derived.
"""

from repro.enumeration.graph import StateGraph, Edge
from repro.enumeration.kernel import (
    KERNEL_MODES,
    CompiledKernel,
    InterpretedKernel,
    compile_model,
    resolve_kernel,
)
from repro.enumeration.bfs import (
    EnumerationError,
    InvariantViolation,
    enumerate_states,
    enumerate_states_parallel,
)
from repro.enumeration.frontier import FrontierCodec, SharedFrontier
from repro.enumeration.pool import WorkerPool
from repro.enumeration.stats import EnumerationStats
from repro.enumeration.analysis import (
    GraphProfile,
    depth_histogram,
    depths_from_reset,
    profile,
    to_dot,
)

__all__ = [
    "KERNEL_MODES",
    "CompiledKernel",
    "InterpretedKernel",
    "compile_model",
    "resolve_kernel",
    "GraphProfile",
    "depth_histogram",
    "depths_from_reset",
    "profile",
    "to_dot",
    "StateGraph",
    "Edge",
    "FrontierCodec",
    "SharedFrontier",
    "WorkerPool",
    "enumerate_states",
    "enumerate_states_parallel",
    "EnumerationError",
    "InvariantViolation",
    "EnumerationStats",
]
