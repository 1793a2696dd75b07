"""Select anchor points with each strategy and invert them back to inputs.

Anchors live in feature space: a handful of vectors per class standing in for
the training distribution once the raw data is gone.  A strategy is a name
from ``STRATEGIES``, and ``per_class`` is the count for every one of them:
k-means returns that many centroids, and ``full`` keeps every member.
Inversion runs Adam on a synthetic input until its embedding matches the
anchor under mean absolute error, yielding replay samples for later sessions.
"""

import numpy as np

from anchorinv import (STRATEGIES, get_preset, invert_set, materialize_synth,
                       project_features, select_anchors, train_base)
from anchorinv.presets import build_split


def main():
    preset = get_preset("desk")
    train, _ = materialize_synth(preset)
    split = build_split(preset, train)
    state = train_base(split.base.x, split.base.y, preset.backbone_config,
                       preset.base_train)
    features = project_features(state, split.base)
    print(f"base feature set: {len(features)} vectors of dim "
          f"{features.vectors.shape[1]}\n")

    per_class = 5
    print(f"strategies, {per_class} anchors per class:")
    chosen = {}
    for name in STRATEGIES:
        anchors = select_anchors(features, name, per_class, seed=preset.master_seed,
                                 fraction=0.5)
        chosen[name] = anchors
        print(f"  {name:<15} -> {len(anchors)} anchors, classes "
              f"{anchors.classes()}")

    # kmeans anchors are centroids, not members of the feature set; the
    # sampling strategies return actual projected training samples
    member = np.isin(chosen["random_sample"].vectors, features.vectors).all()
    centroid = np.isin(chosen["kmeans"].vectors, features.vectors).all()
    print(f"\nrandom_sample anchors are feature-set members: {member}")
    print(f"kmeans anchors are feature-set members: {centroid}")

    anchors = chosen["random_sample"]
    replay = invert_set(state, anchors, preset.adaptation.inversion)
    mae = replay.feature_mae
    print(f"\ninverted {len(replay)} anchors with "
          f"{preset.adaptation.inversion.iterations} Adam steps:")
    print(f"  feature MAE  min {mae.min():.4f}  median {np.median(mae):.4f}  "
          f"max {mae.max():.4f}")
    print(f"  replay samples: {replay.samples.shape}, labels "
          f"{np.bincount(replay.labels)}")

    # the inverted inputs should embed close to their anchors but need not
    # resemble the original waveforms; feature-space agreement is the contract
    raw_scale = np.abs(split.base.x).mean()
    inv_scale = np.abs(replay.samples).mean()
    print(f"  mean |value|: training data {raw_scale:.3f}, "
          f"inverted samples {inv_scale:.3f}")


if __name__ == "__main__":
    main()
