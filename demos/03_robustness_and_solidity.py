"""What 25% fake interactions do to the model, and whether the learned edge
solidity scores can tell the fakes apart.

Two observations at desk scale: the hypergraph model degrades less under
training-edge corruption than its graph-convolution-only ablation (which
fits the clean data much harder and the noise with it), and the solidity
labels trained by the self-augmentation task score injected edges lower
than surviving real edges.

Run from the repository root:  python3 demos/03_robustness_and_solidity.py
(takes a couple of minutes: it trains five models)
"""

import numpy as np

from hypercf import Config, inject_noise, noise_robustness, split, \
    synthetic_blocks, train_on_split
from hypercf.data import SplitDataset, build_normalized_adjacency

dataset = synthetic_blocks(seed=0)
cfg = Config(seed=0, hyperedges=16)

print("== noise robustness: full model vs graph-only ablation ==")
for label, variant in (("full", cfg),
                       ("-hyper", Config(seed=0, hyperedges=16,
                                         ablate=("hyper",)))):
    rows = noise_robustness(dataset, [0.25], variant)
    clean, noisy = rows[0], rows[1]
    drop = 1.0 - noisy["recall_rel"]
    print(f"  {label:6s} clean recall@20 {clean['recall']:.4f}  "
          f"at 25% noise {noisy['recall']:.4f}  "
          f"relative degradation {drop:+.3f}")

print("== solidity scores on a 15%-corrupted training graph ==")
splits = split(dataset, seed=0)
noisy15, fake = inject_noise(splits.train, 0.15, seed=0)
run = train_on_split(SplitDataset(noisy15, splits.validation, splits.test),
                     cfg)
s = run.model.solidity_of_edges(run.adj, noisy15.edges)
print(f"  injected fake edges: mean solidity {np.mean(s[fake]):.4f} "
      f"({fake.sum()} edges)")
print(f"  surviving real edges: mean solidity {np.mean(s[~fake]):.4f} "
      f"({(~fake).sum()} edges)")
print(f"  fakes scored lower: {np.mean(s[fake]) < np.mean(s[~fake])}")
