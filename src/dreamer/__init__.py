"""Depth-recurrent attention-mixture language models on a numpy autodiff core.

One shared layer composes sequence attention, depth attention over a
token's own earlier hidden states, and expert attention (a mixture of
experts with static routing keys), applied repeatedly across depth.
"""

from .config import ModelConfig, desk_config, load_config, published_config
from .costs import (CostReport, MatchResult, cost_report, count_flops,
                    count_memory, count_params, match_model)
from .errors import (ConfigError, ContractError, DreamerError, EmptyDataError,
                     InputError, NumericError, ShapeError)
from .model import CacheSet, DepthCache, DreamerModel, SeqCache
from .params import init_parameters, load_checkpoint, save_checkpoint
from .telemetry import (TelemetryLog, da_score_map, depth_unique_expert_profile,
                        generalization_order, gini, joint_to_conditionals,
                        lorenz, support_size, usage_matrix)
from .training import (OptimizerState, TaskSpec, TrainResult, adamw_step,
                       clip_grad_norm, lr_at, make_task, save_token_file, train)

__version__ = "0.1.0"

__all__ = [
    "ModelConfig", "desk_config", "published_config", "load_config",
    "CostReport", "MatchResult", "cost_report", "count_params", "count_flops",
    "count_memory", "match_model",
    "DreamerError", "ShapeError", "NumericError", "ConfigError", "InputError",
    "ContractError", "EmptyDataError",
    "DreamerModel", "CacheSet", "SeqCache", "DepthCache",
    "init_parameters", "save_checkpoint", "load_checkpoint",
    "TelemetryLog", "usage_matrix", "joint_to_conditionals", "support_size",
    "generalization_order", "lorenz", "gini", "da_score_map",
    "depth_unique_expert_profile",
    "OptimizerState", "TaskSpec", "TrainResult", "adamw_step",
    "clip_grad_norm", "lr_at", "make_task", "save_token_file", "train",
    "__version__",
]
