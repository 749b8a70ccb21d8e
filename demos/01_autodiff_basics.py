"""A tour of the tape engine: record a computation, pull gradients back,
and confirm one of them against a finite-difference slope.

Run from the repository root:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from hypercf import autodiff as ad

# Leaves hold values and receive gradients. Everything is a 2-D matrix;
# scalars are 1x1.
w = ad.parameter(np.array([[0.5, -0.2], [0.1, 0.8]]), dtype=np.float64)
x = ad.parameter(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]),
                 dtype=np.float64)

def loss_of():
    # sigma(x W) summed: a one-layer toy
    return ad.sum_all(ad.sigmoid(ad.matmul(x, w)))

# Nothing is taped until recording is on. backward() then walks the tape in
# reverse and accumulates into each leaf's .grad.
with ad.recording():
    loss = loss_of()
ad.backward(loss)

print(f"loss = {loss.value[0, 0]:.6f}")
print("dL/dw =")
print(w.grad)

# Check dL/dw[0,0] by nudging the entry both ways.
eps = 1e-6
w.value[0, 0] += eps
up = loss_of().value[0, 0]
w.value[0, 0] -= 2 * eps
down = loss_of().value[0, 0]
w.value[0, 0] += eps
slope = (up - down) / (2 * eps)
print(f"finite difference on w[0,0]: {slope:.8f}  "
      f"(tape said {w.grad[0, 0]:.8f})")

# Grads accumulate across backward calls on purpose, so a training loop must
# zero them before each batch. Forgetting this is the classic silent bug.
with ad.recording():
    loss = loss_of()
ad.backward(loss)
print(f"after a second backward without zeroing: w.grad[0,0] = "
      f"{w.grad[0, 0]:.8f} (doubled)")
w.zero_grad()
x.zero_grad()

# The whole-model check: every parameter of the recommender against central
# differences. This is the same routine the test suite leans on.
from hypercf.config import Config
from hypercf.model import Model
from hypercf import data as D

ad.set_default_dtype(np.float64)
cfg = Config(d=8, hyperedges=3, heads=2, layers=2, lambda1=1e-2,
             lambda2=1e-4)
edges = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 2),
         (4, 3), (4, 0), (5, 1), (5, 4)]
ds = D.InteractionDataset.from_edges(edges, 6, 5)
adj = D.build_normalized_adjacency(ds, dtype=np.float64)
model = Model(cfg, 6, 5)
rng = np.random.default_rng(100)
main = D.sample_main_pairs(ds, 6, rng, users=np.arange(6))
sal = D.sample_sal_pairs(ds, 6, rng)

report = ad.grad_check(lambda: model.total_loss(model.forward(adj), main, sal),
                       model.params, epsilon=1e-5)
print(report)
ad.set_default_dtype(np.float32)
