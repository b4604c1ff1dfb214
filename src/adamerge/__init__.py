"""Training-free ViT token merging with salience-weighted matching and an
input- and layer-adaptive merge schedule, plus calibration, FLOPs
accounting and a benchmark CLI."""

from .matcher import (MergeDecision, Partition, execute_merge, partition,
                      reconstruction_gap, select_merges, weighted_scores)
from .runtime import (VIT_B16, ModelDims, ModelWeights, RunConfig, RunTrace,
                      TokenSequence, forward_block, forward_model,
                      load_weights, run_images, save_weights, synth_weights)
from .salience import SalienceVector, compute_salience, minmax_normalize, salience_of
from .schedule import LayerStats, ScheduleConfig, decide_r, redundancy_proxy

__all__ = [
    "MergeDecision", "Partition", "execute_merge", "partition",
    "reconstruction_gap", "select_merges", "weighted_scores",
    "VIT_B16", "ModelDims", "ModelWeights", "RunConfig", "RunTrace",
    "TokenSequence", "forward_block", "forward_model",
    "load_weights", "run_images", "save_weights", "synth_weights",
    "SalienceVector", "compute_salience", "minmax_normalize", "salience_of",
    "LayerStats", "ScheduleConfig", "decide_r", "redundancy_proxy",
]
