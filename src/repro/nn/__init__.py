"""A from-scratch neural-network substrate (numpy reverse-mode autodiff).

Replaces PyTorch for this reproduction: dynamic computation graphs, exact
gradients, modules, optimizers and losses — everything QPP Net's
plan-structured networks require.  See ``DESIGN.md`` §2 for the
substitution rationale.

Precision tiers
---------------
The substrate is dtype-polymorphic over two compute precisions, chosen
once at model construction and carried by the parameters themselves:

* **float64 — the reference.**  The default everywhere.  All engine
  equivalence guarantees (compiled/fused gradients pinned to the tape at
  <= 1e-9) are stated in float64, and a float64 model is the yardstick
  the float32 tier is validated against.  Pick it for gradient checks,
  ablation studies and any numerical debugging.
* **float32 — the production setting** (``QPPNetConfig(dtype="float32")``).
  QPP Net is small dense matmuls, which on CPU are memory-bandwidth
  bound; halving the byte width of parameters, features, activations,
  gradients and optimizer state is a direct throughput lever (see the
  ``dtype`` sections of ``BENCH_training.json`` / ``BENCH_serving.json``).
  Training tracks the float64 loss curve and serving agrees with float64
  predictions to <= 1e-4 relative (property-tested).

Mechanically: :class:`Linear` (and :func:`mlp`) take a ``dtype`` and
draw their float64 init before casting, so both tiers start from the
same rng stream; :class:`Tensor` preserves float32/float64 content
instead of forcing float64; :class:`FlatParameterSpace` adopts the
parameters' shared dtype, so the fused global-norm clip and
``step_flat`` updates run in-model precision; ``state_dict`` round-trips
are bitwise within a tier and cast across tiers on load.
"""

from . import functional
from .gradcheck import check_gradients, numerical_gradient
from .layers import Lambda, Linear, Module, ReLU, Sequential, Sigmoid, Tanh, mlp
from .loss import LOSSES, huber_loss, l1_loss, mse_loss, rmse_loss
from .optim import SGD, Adam, FlatParameterSpace, Optimizer, StepLR, make_optimizer
from .serialize import load_module
from .tensor import Tensor, inference_mode, is_inference_mode, ones, tensor, zeros

__all__ = [
    "functional",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "inference_mode",
    "is_inference_mode",
    "Module",
    "Linear",
    "Sequential",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Lambda",
    "mlp",
    "SGD",
    "Adam",
    "Optimizer",
    "FlatParameterSpace",
    "StepLR",
    "make_optimizer",
    "mse_loss",
    "rmse_loss",
    "l1_loss",
    "huber_loss",
    "LOSSES",
    "check_gradients",
    "numerical_gradient",
    "load_module",
]
