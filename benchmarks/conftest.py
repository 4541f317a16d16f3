"""Shared fixtures for the benchmark suite.

The expensive pipeline artifacts (state graph, tours, vector traces) are
design-dependent but experiment-independent, so they are built once per
session and shared across benchmarks.
"""

import pytest

from repro.core import ValidationPipeline
from repro.harness.campaign import ValidationCampaign
from repro.pp.fsm_model import PPModelConfig


@pytest.fixture(scope="session")
def campaign():
    """The standard campaign: fill_words=2 control model, Fig. 3.3 tours
    with a 400-instruction trace limit, seed 7."""
    return ValidationCampaign(ValidationPipeline(
        model_config=PPModelConfig(fill_words=2),
        seed=7,
        max_instructions_per_trace=400,
    ))
