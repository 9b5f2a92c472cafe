"""Spiking-network video reconstruction from event-camera streams."""

from .autodiff import Adam, Tensor, finite_difference_check, no_grad
from .events import (Event, EventStream, EventWindow, VoxelGrid, encode_voxel_grid,
                     load_events, normalize_nonzero, parse_event_stream,
                     save_events, slice_temporal_bins, split_windows)
from .model import Network, NetworkSpec, skip_connect
from .neurons import (AmpBlockParams, NeuronConfig, amp_compute_tau,
                      amp_lif_step, if_step, lif_step, mp_step, plif_tau)
from .synthetic import SyntheticScene, generate_events, random_scene
from .training import (TrainConfig, reconstruction_loss,
                       temporal_consistency_loss, total_loss, train)

__version__ = "0.1.0"
