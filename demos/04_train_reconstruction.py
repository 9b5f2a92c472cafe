#!/usr/bin/env python3
"""Demo 4: train a small spiking network to reconstruct video from events.

Builds a reduced U-shaped spiking network, trains it with truncated BPTT
on one synthetic scene, and reports reconstruction quality before and
after. Runs in about a minute; bump EPOCHS toward 200 to reach the
overfit regime (MSE < 0.05).
"""

import numpy as np

from evrecon.model import Network, NetworkSpec
from evrecon.synthetic import random_scene
from evrecon.training import (TrainConfig, evaluate_reconstruction,
                              scene_to_bins, train)

EPOCHS = 40

scene = random_scene(32, 32, steps=41, rng=np.random.default_rng(42),
                     contrast=0.1)
spec = NetworkSpec(height=32, width=32, n_channels=8, n_encoders=2,
                   n_residual=1)
net = Network(spec, seed=0)
print(f"network: {net.num_parameters():,} parameters, "
      f"{spec.n_encoders} encoders, skip={spec.skip_kind}, "
      f"neurons={spec.neuron_kind}")

bins, gts, _ = scene_to_bins(scene)
mse0, ssim0 = evaluate_reconstruction(net, bins[:40], gts[:40])
# note: an untrained net emits a near-constant image, which scores a
# deceptively low MSE against a smooth texture - watch SSIM instead
print(f"untrained:  MSE {mse0:.4f}  SSIM {ssim0:+.4f}")

cfg = TrainConfig(batch=1, epochs=EPOCHS, seq_len=40)
history = train(net, [scene], cfg,
                progress=lambda r: print(f"  epoch {r['epoch']:3d}  "
                                         f"loss {r['loss']:.3f}  "
                                         f"spike rate {r['spike_rate']:.3f}")
                if r["epoch"] % 10 == 0 else None)

mse1, ssim1 = evaluate_reconstruction(net, bins[:40], gts[:40])
print(f"\ntrained ({EPOCHS} epochs):  MSE {mse1:.4f}  SSIM {ssim1:+.4f}")
print(f"loss {history[0]['loss']:.3f} -> {history[-1]['loss']:.3f}")

net.save("demo_checkpoint.spkt")
print("checkpoint written to demo_checkpoint.spkt "
      "(try: evrecon reconstruct --checkpoint demo_checkpoint.spkt ...)")
