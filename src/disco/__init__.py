"""Benchmark condensation by model disagreement.

Selects a small anchor subset of an evaluation benchmark by ranking samples
on inter-model disagreement, then predicts any new model's full-benchmark
accuracy from its outputs on those anchors.

The package exports the names of the README's quick tour; every other name
is imported from its module.
"""

from .files import TensorFiles
from .harness import (
    ChronologicalSplit,
    PredictorConfig,
    median_date_cutoff,
    run_pipeline,
    split_models,
)
from .synth import SynthConfig, generate_population, save_population

__version__ = "0.1.0"
