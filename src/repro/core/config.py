"""QPP Net hyperparameters.

Paper defaults (§6 "Neural networks"): 5 hidden layers of 128 neurons per
unit, data vector size d=32, ReLU activations, SGD with learning rate
0.001 and momentum 0.9, 1000 epochs.  ``QPPNetConfig.paper()`` returns
exactly that; the library default is a scaled-down configuration that
trains in minutes on CPU while preserving every qualitative behaviour
(see DESIGN.md §2).

``dtype`` selects the compute precision for the whole stack — parameter
storage, feature/assembly buffers, matmuls, loss and optimizer state.
``"float64"`` (the default) is the reference every execution tier is
pinned against; ``"float32"`` is the recommended production setting:
same model, half the memory traffic, measurably higher training and
serving throughput, with predictions agreeing with the float64
reference to <= 1e-4 relative (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

#: Training-optimization modes (§5.1, ablated in Figure 9a).
TRAINING_MODES = ("naive", "batching", "info_sharing", "both")

#: Compute precisions.  "float64" is the numerical reference every
#: engine is pinned against; "float32" halves the byte width of
#: parameters, features, activations and gradients, which on these
#: memory-bandwidth-bound small matmuls is a direct throughput win
#: (see BENCH_training.json / BENCH_serving.json "dtype" sections).
COMPUTE_DTYPES = ("float64", "float32")

#: Training execution engines for mode ``both``.  "fused" (default) runs
#: the cross-structure level-fused LevelPlan — one matmul per unit type
#: per tree depth across every structure group of the batch, forward and
#: backward, with closed-form gradients; "taped" forces the reference
#: autodiff path.  The ablation modes always run taped (their redundant
#: computation is the thing being measured).
TRAINING_ENGINES = ("fused", "taped")


@dataclass(frozen=True)
class QPPNetConfig:
    """Hyperparameters for QPP Net's units and training loop."""

    hidden_layers: int = 3
    neurons: int = 64
    data_size: int = 16  # d: opaque data-vector width (paper: 32)
    activation: str = "relu"
    optimizer: str = "sgd"
    lr: float = 0.001
    momentum: float = 0.9
    loss: str = "mse"  # 'mse' or 'rmse' (paper Eq. 7; same minimizer)
    epochs: int = 120
    batch_size: int = 256
    mode: str = "both"  # training optimization mode (§5.1)
    engine: str = "fused"  # training execution engine (mode 'both' only)
    dtype: str = "float64"  # compute precision ('float64' reference, 'float32' fast)
    grad_clip: float = 100.0
    lr_decay_every: int = 0  # epochs between LR decays (0 disables)
    lr_decay_gamma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_layers < 0:
            raise ValueError("hidden_layers must be >= 0")
        if self.neurons <= 0:
            raise ValueError("neurons must be positive")
        if self.data_size < 0:
            raise ValueError("data_size must be >= 0")
        if self.mode not in TRAINING_MODES:
            raise ValueError(f"mode must be one of {TRAINING_MODES}")
        if self.engine not in TRAINING_ENGINES:
            raise ValueError(f"engine must be one of {TRAINING_ENGINES}")
        if self.dtype not in COMPUTE_DTYPES:
            raise ValueError(f"dtype must be one of {COMPUTE_DTYPES}")
        if self.loss not in ("mse", "rmse"):
            raise ValueError("loss must be 'mse' or 'rmse'")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype every compute buffer of this model uses."""
        return np.dtype(self.dtype)

    @classmethod
    def paper(cls) -> "QPPNetConfig":
        """The exact §6 configuration."""
        return cls(
            hidden_layers=5,
            neurons=128,
            data_size=32,
            lr=0.001,
            momentum=0.9,
            epochs=1000,
            loss="rmse",
        )

    def with_(self, **kwargs) -> "QPPNetConfig":
        """Functional update (e.g. ``cfg.with_(neurons=256)``)."""
        return replace(self, **kwargs)
