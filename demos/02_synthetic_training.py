"""Train on the planted-block dataset and round-trip a checkpoint.

The dataset gives every user ~20 interactions, 80% inside its own community
of 25 items, so a model that recovers block structure ranks well. Random
ranking lands near recall@20 = 20/200 = 0.1.

Run from the repository root:  python3 demos/02_synthetic_training.py
"""

import os
import tempfile

from hypercf import (Config, evaluate_model, load_checkpoint, split,
                     synthetic_blocks, train_on_split)
from hypercf.trainer import build_model

dataset = synthetic_blocks(seed=0)
print(f"dataset: {dataset.num_users} users x {dataset.num_items} items, "
      f"{dataset.num_edges} interactions")

splits = split(dataset, seed=0)
print(f"split edges: train {splits.train.num_edges} / "
      f"validation {splits.validation.num_edges} / "
      f"test {splits.test.num_edges}")

# Package defaults, with the hyperedge count scaled down to the dataset and
# fewer epochs than a full run so the demo stays quick.
cfg = Config(seed=0, hyperedges=16, epochs=20)

def log(row):
    if row["epoch"] % 5 == 0:
        print(f"  epoch {row['epoch']:2d}  lr {row['lr']:.2e}  "
              f"loss {row['loss']:.4f} (main {row['main']:.4f} "
              f"sal {row['sal']:.4f} reg {row['reg']:.4f})")

# The run writes best.ckpt on each validation improvement and last.ckpt
# after every epoch; either file holds the Adam moments and rng state too,
# so `resume` can continue the run from it.
with tempfile.TemporaryDirectory() as out_dir:
    run = train_on_split(splits, cfg, out_dir=out_dir, log_fn=log)
    print(f"best epoch: {run.result.best_epoch} "
          f"(validation recall@20 = {run.result.best_metric:.4f})")

    metrics = run.test_metrics((20, 40))
    for key in sorted(metrics):
        print(f"  test {key} = {metrics[key]:.4f}")

    # Checkpoint round trip: the model built from best.ckpt scores exactly
    # as the run's restored best epoch does.
    path = os.path.join(out_dir, "best.ckpt")
    ckpt = load_checkpoint(path)
    print(f"checkpoint: {os.path.getsize(path)} bytes, {ckpt.progress}, "
          f"{ckpt.record['adam_steps']} Adam steps")
    restored = build_model(ckpt)
    again = evaluate_model(restored, run.adj, splits.train, splits.test,
                           cutoffs=(20,))
    same = again["recall@20"] == metrics["recall@20"]
    print(f"restored model reproduces recall@20 exactly: {same}")
