"""Hypergraph-transformer collaborative filtering with self-augmented denoising."""

from .config import Config, ConfigError, load_config
from .data import (InteractionDataset, SplitDataset,
                   build_normalized_adjacency, inject_noise,
                   load_interactions, split, synthetic_blocks)
from .evaluation import evaluate_model, ndcg_at_n, recall_at_n, write_csv
from .experiments import (TrainedRun, ablation_study, noise_robustness,
                          sparsity_report, sweep, train_on_split)
from .model import Model
from .trainer import (Adam, DivergenceError, fit, load_checkpoint, resume,
                      save_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "Adam", "Config", "ConfigError", "DivergenceError", "InteractionDataset",
    "Model", "SplitDataset", "TrainedRun", "ablation_study",
    "build_normalized_adjacency", "evaluate_model", "fit", "inject_noise",
    "load_checkpoint", "load_config", "load_interactions", "ndcg_at_n",
    "noise_robustness", "recall_at_n", "resume", "save_checkpoint",
    "sparsity_report", "split", "sweep", "synthetic_blocks", "train_on_split",
    "write_csv",
]
