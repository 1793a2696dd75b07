"""Few-shot class-incremental learning for multichannel time series via
feature-space anchors and model-inversion replay.

The pipeline: train a conv backbone with a cosine-metric classifier on the
base session, store per-class anchor features, and at each incremental
session invert the anchors back into synthetic inputs that regularize
finetuning on the new few-shot classes.  Everything runs on a small
hand-rolled reverse-mode autodiff engine over numpy, so the whole package is
self-contained and deterministic.
"""

from .adaptation import (METHODS, AdaptationConfig, FinetuneConfig, adapt_protonet,
                         adapt_teen, base_anchor_memory, composite_loss,
                         finetune_session, run_fscil, sample_base_replay_store)
from .anchors import (AnchorSet, ClosestToPrototype, FeatureSet, FullSet,
                      KMeansCentroids, KMeansObjectiveError, RandomClosestPercent,
                      RandomSample, incremental_anchors, kmeans, load_anchor_set,
                      project_features, save_anchor_set, select_anchors,
                      strategy_from_name)
from .autodiff import NonFiniteError, ShapeError, Tensor
from .data import (Dataset, SessionSpec, SessionSplit, StandardizationStats,
                   SynthClassSpec, SynthSpec, desk_synth_spec,
                   paired_gain_spec, segment,
                   split_sessions, synth_arrays, zscore_apply, zscore_fit,
                   zscore_invert)
from .evaluation import (TrialPlan, TrialReport, macro_f1, per_class_f1,
                         random_chance_f1, render_report, run_trials,
                         sample_trial_sets, summarize, wilcoxon_signed_rank)
from .inversion import (InversionConfig, LabelInversionConfig, ReplaySet,
                        deepdream_config, deepinv_config, feature_stat_penalty,
                        invert_anchor, invert_set, label_space_invert,
                        label_space_invert_batch, total_variation)
from .model import (BACKBONE_PRESETS, BaseTrainConfig, ConvBackbone,
                    ConvBackboneConfig, FeatureStats, IdentityBackbone,
                    LinearBackbone, ModelState, TrainingDivergedError, accuracy,
                    class_scores, compute_prototypes, cosine_distance,
                    predict, predict_batch, prototype_of, train_base)
from .optim import Adam, FreezingViolation, minimize
from .presets import (EXPERIMENT_PRESETS, ExperimentPreset, build_split, get_preset,
                      materialize_synth, with_synth_classes)
from .seeds import derive_seed, make_rng
from .serialization import (ContainerError, canonical_json, file_sha256,
                            load_checkpoint, read_manifest_dataset, save_checkpoint,
                            write_manifest_dataset)

__version__ = "0.1.0"

__all__ = [
    # engine
    "Tensor", "Adam", "minimize", "FreezingViolation", "NonFiniteError", "ShapeError",
    # data
    "Dataset", "SynthClassSpec", "SynthSpec", "StandardizationStats",
    "SessionSpec", "SessionSplit", "desk_synth_spec", "paired_gain_spec",
    "synth_arrays", "segment",
    "split_sessions", "zscore_fit", "zscore_apply", "zscore_invert",
    # model
    "ConvBackboneConfig", "BACKBONE_PRESETS", "ConvBackbone", "IdentityBackbone",
    "LinearBackbone", "ModelState", "FeatureStats", "BaseTrainConfig",
    "TrainingDivergedError", "train_base", "accuracy", "cosine_distance",
    "class_scores", "predict", "predict_batch", "prototype_of",
    "compute_prototypes",
    # anchors
    "FeatureSet", "AnchorSet", "RandomSample", "ClosestToPrototype",
    "RandomClosestPercent", "KMeansCentroids", "FullSet", "strategy_from_name",
    "project_features", "select_anchors", "incremental_anchors", "kmeans",
    "KMeansObjectiveError",
    "save_anchor_set", "load_anchor_set",
    # inversion
    "InversionConfig", "LabelInversionConfig", "ReplaySet", "invert_anchor",
    "invert_set", "label_space_invert", "label_space_invert_batch",
    "total_variation", "feature_stat_penalty", "deepdream_config", "deepinv_config",
    # adaptation
    "METHODS", "FinetuneConfig", "AdaptationConfig", "composite_loss",
    "finetune_session", "adapt_protonet", "adapt_teen", "run_fscil",
    "base_anchor_memory", "sample_base_replay_store",
    # evaluation
    "macro_f1", "per_class_f1", "random_chance_f1", "wilcoxon_signed_rank",
    "TrialPlan", "TrialReport", "sample_trial_sets", "run_trials", "summarize",
    "render_report",
    # presets
    "ExperimentPreset", "EXPERIMENT_PRESETS", "get_preset", "materialize_synth",
    "build_split", "with_synth_classes",
    # persistence
    "ContainerError", "save_checkpoint", "load_checkpoint",
    "write_manifest_dataset", "read_manifest_dataset", "canonical_json",
    "file_sha256",
    # seeds
    "derive_seed", "make_rng",
]
