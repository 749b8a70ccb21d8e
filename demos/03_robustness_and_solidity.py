"""What 25% fake interactions do to the model, and whether the learned edge
solidity scores can tell the fakes apart.

Two observations at desk scale: the hypergraph model degrades less under
training-edge corruption than its graph-convolution-only ablation (which
fits the clean data much harder and the noise with it), and the solidity
labels trained by the self-augmentation task score injected edges lower
than surviving real edges.

Run from the repository root:  python3 demos/03_robustness_and_solidity.py
(it trains five small models: under ten seconds on a 2-vCPU box)
"""

import numpy as np

from hypercf import Config, inject_noise, split, synthetic_blocks, \
    train_on_split
from hypercf.data import SplitDataset
from hypercf.experiments import study

dataset = synthetic_blocks(seed=0)
splits = split(dataset, seed=0)
cfg = Config(seed=0, hyperedges=16)

print("== noise robustness: full model vs graph-only ablation ==")
recalls = [m["recall@20"] for m in study(
    splits, [cfg, Config(seed=0, hyperedges=16, ablate=("hyper",))],
    (0.0, 0.25))]
for label, clean, noisy in zip(("full", "-hyper"), recalls[::2],
                               recalls[1::2]):
    print(f"  {label:6s} clean recall@20 {clean:.4f}  at 25% noise "
          f"{noisy:.4f}  relative degradation {1.0 - noisy / clean:+.3f}")

print("== solidity scores on a 15%-corrupted training graph ==")
noisy15, fake = inject_noise(splits.train, 0.15, seed=0)
run = train_on_split(SplitDataset(noisy15, splits.validation, splits.test),
                     cfg)
s = run.model.solidity_of_edges(run.adj, noisy15.edges)
print(f"  injected fake edges: mean solidity {np.mean(s[fake]):.4f} "
      f"({fake.sum()} edges)")
print(f"  surviving real edges: mean solidity {np.mean(s[~fake]):.4f} "
      f"({(~fake).sum()} edges)")
print(f"  fakes scored lower: {np.mean(s[fake]) < np.mean(s[~fake])}")
