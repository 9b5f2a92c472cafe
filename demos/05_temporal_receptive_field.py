#!/usr/bin/env python3
"""Demo 5: probing the temporal receptive field with empty inputs.

Spiking state is the network's only memory. Feeding real event bins and
then switching to empty input shows how activity persists and decays.
With batch norm folded into the convolutions and all biases zeroed, the
decay law is exact: every membrane potential shrinks by (1 - 1/tau) per
silent step. With the biases left in place, the network keeps firing on
empty input - the bias-driven limitation of spiking reconstruction.
"""

import numpy as np

from evrecon.model import Network, NetworkSpec, spike_rate
from evrecon.synthetic import random_scene
from evrecon.training import scene_to_bins

spec = NetworkSpec(height=16, width=16, n_channels=4, n_encoders=2,
                   n_residual=1)
rng = np.random.default_rng(0)
scene = random_scene(16, 16, steps=7, rng=rng, contrast=0.1)
bins, _, _ = scene_to_bins(scene)

# Case 1: clean decay. Fold BN, zero every bias, then watch the state
# norm after the event stream is cut off.
net = Network(spec, seed=0)
net.train_mode(True)
for b in bins[:4]:
    net.forward_step(b)
net.train_mode(False)
net.fold_batchnorm()
net.zero_biases()
net.reset_state()

for b in bins[:4]:
    net.forward_step(b)

print("folded BN + zero biases, input cut off:")
empty = np.zeros((16, 16))
prev_norm = None
for step in range(6):
    net.forward_step(empty)
    norm = sum(0.0 if v is None else float(np.abs(v).sum())
               for v in net.get_state().values())
    ratio = "" if prev_norm in (None, 0.0) else f"  ratio {norm / prev_norm:.4f}"
    print(f"  silent step {step}: total |state| {norm:10.3f}{ratio}")
    prev_norm = norm
print(f"  (expected ratio: 1 - 1/tau = {1 - 1 / spec.tau})")

# Case 2: the limitation. Nonzero BN shifts act like a constant input
# current, so neurons keep firing long after the events stop.
net2 = Network(spec, seed=0)
for stage in net2.stages:
    if stage.has_bn:
        stage.beta.data[:] = rng.uniform(0.5, 1.5, stage.beta.shape)

print("\nunfolded BN with nonzero shifts, empty input from the start:")
for step in range(4):
    spike_counts = {}
    net2.forward_step(empty, spike_counts)
    print(f"  silent step {step}: spike rate {spike_rate(spike_counts):.3f}")
print("  -> nonzero rate despite zero input: bias current never sleeps")
