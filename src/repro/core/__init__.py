"""QPP Net core: neural units, plan-structured model, training."""

from .bundle import BundleCorruptError, load_bundle, save_bundle
from .checkpoint import (
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from .batching import (
    BufferPool,
    CorpusBatch,
    PlanBucket,
    PlanGraph,
    PreGroupedCorpus,
    StructureGroup,
    VectorizedPlan,
    group_by_structure,
    plan_graph,
    sample_batches,
    vectorize_corpus,
    vectorize_plan,
)
from .compile import CompiledSchedule, ScheduleCache, ScheduleStep
from .config import COMPUTE_DTYPES, TRAINING_ENGINES, TRAINING_MODES, QPPNetConfig
from .levels import GraphLevels, LevelPlan, LevelPlanCache, LevelRun, LevelStep
from .model import MIN_PREDICTION_MS, NonFiniteOutput, QPPNet
from .trainer import Trainer, TrainingHistory, fine_tune, train_qppnet
from .unit import NeuralUnit

__all__ = [
    "QPPNetConfig",
    "TRAINING_MODES",
    "TRAINING_ENGINES",
    "COMPUTE_DTYPES",
    "NeuralUnit",
    "QPPNet",
    "MIN_PREDICTION_MS",
    "NonFiniteOutput",
    "Trainer",
    "TrainingHistory",
    "train_qppnet",
    "fine_tune",
    "save_bundle",
    "load_bundle",
    "BundleCorruptError",
    "Checkpoint",
    "CheckpointError",
    "CheckpointCorruptError",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
    "latest_valid_checkpoint",
    "PlanGraph",
    "PlanBucket",
    "VectorizedPlan",
    "StructureGroup",
    "plan_graph",
    "vectorize_plan",
    "vectorize_corpus",
    "group_by_structure",
    "sample_batches",
    "BufferPool",
    "PreGroupedCorpus",
    "CorpusBatch",
    "CompiledSchedule",
    "ScheduleCache",
    "ScheduleStep",
    "GraphLevels",
    "LevelPlan",
    "LevelPlanCache",
    "LevelRun",
    "LevelStep",
]
