"""Benchmark condensation by model disagreement.

Selects a small anchor subset of an evaluation benchmark by ranking samples
on inter-model disagreement, then predicts any new model's full-benchmark
accuracy from its outputs on those anchors.
"""

from .errors import DiscoError
from .files import TensorFiles
from .harness import (
    ChronologicalSplit,
    EvalReport,
    ModelSplit,
    PredictorConfig,
    SharedSources,
    UniformSplit,
    mae,
    median_date_cutoff,
    pearson,
    run_pipeline,
    spearman,
    split_models,
    sweep_budgets,
)
from .predictors import (
    ForestConfig,
    PredictorModel,
    load_predictor,
    predict,
    predict_weighted_sum,
    save_predictor,
    train,
)
from .scoring import (
    ScoreTable,
    balance_identity_check,
    check_sandwich,
    jsd,
    mutual_information_bruteforce,
    pds,
    score_dataset,
    total_variation,
)
from .selection import (
    AnchorSubset,
    build_embeddings,
    load_subset,
    save_subset,
    select_best_for_validation,
    select_kmedoids,
    select_random,
    select_stratified_topk,
    select_topk,
)
from .signatures import (
    PcaProjection,
    build_signature,
    pca_fit,
    pca_transform,
)
from .store import (
    BenchmarkManifest,
    ModelMeta,
    PredictionTensor,
    accuracy,
    correctness,
    load_manifest,
    load_tensor,
    save_manifest,
    save_tensor,
)
from .synth import SynthConfig, generate_population, oracle_true_performance, save_population

__version__ = "0.1.0"
