"""Config-driven pipeline orchestration with stage-wise resumption."""

from exsel.pipeline.baselines import baseline_random
from exsel.pipeline.config import (
    MODE_LLM,
    MODE_SURROGATE,
    ConfigError,
    CorpusConfig,
    PipelineConfig,
    config_from_dict,
    load_config,
)
from exsel.pipeline.manifest import RunManifest, file_sha256
from exsel.pipeline.runner import STAGES, PipelineError, RunState, run_pipeline

__all__ = [
    "ConfigError",
    "CorpusConfig",
    "MODE_LLM",
    "MODE_SURROGATE",
    "PipelineConfig",
    "PipelineError",
    "RunManifest",
    "RunState",
    "STAGES",
    "baseline_random",
    "config_from_dict",
    "file_sha256",
    "load_config",
    "run_pipeline",
]
