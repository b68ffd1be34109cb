"""Config-driven pipeline orchestration with stage-wise resumption."""

from exsel.pipeline.baselines import BaselineSummary, baseline_random
from exsel.pipeline.config import (
    MODE_LLM,
    MODE_SURROGATE,
    ConfigError,
    CorpusConfig,
    PipelineConfig,
    config_from_dict,
    load_config,
)
from exsel.pipeline.manifest import RunManifest, StageRecord, file_sha256
from exsel.pipeline.runner import STAGES, PipelineError, RunState, run_baselines, run_pipeline

__all__ = [
    "BaselineSummary",
    "ConfigError",
    "CorpusConfig",
    "MODE_LLM",
    "MODE_SURROGATE",
    "PipelineConfig",
    "PipelineError",
    "RunManifest",
    "RunState",
    "STAGES",
    "StageRecord",
    "baseline_random",
    "config_from_dict",
    "file_sha256",
    "load_config",
    "run_baselines",
    "run_pipeline",
]
