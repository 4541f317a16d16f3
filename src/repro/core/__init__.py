"""The paper's primary contribution as one public API.

:class:`ValidationPipeline` wires the four steps of Fig. 3.1 together:

1. translate the design into an FSM model (from Verilog via
   :mod:`repro.hdl`/:mod:`repro.translate`, or a hand-built
   :class:`~repro.smurphi.SyncModel`),
2. enumerate the complete control state graph,
3. generate transition tours and map them to test vectors,
4. simulate the RTL implementation against the executable specification
   and report data-value differences.
"""

from repro.core.cache import ArtifactCache, phase_code_version
from repro.core.pipeline import ValidationPipeline, PipelineArtifacts
from repro.core.report import ValidationReport, format_campaign_table

__all__ = [
    "ArtifactCache",
    "ValidationPipeline",
    "PipelineArtifacts",
    "ValidationReport",
    "format_campaign_table",
    "phase_code_version",
]
