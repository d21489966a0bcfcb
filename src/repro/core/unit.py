"""Operator-level neural units (paper §4.1).

A :class:`NeuralUnit` models one logical operator type.  Its input is the
operator's feature vector ``F(op)`` concatenated with the ``(latency,
data-vector)`` outputs of its children (zero-padded to the type's fixed
arity); its output is a ``(d+1)``-vector whose first element is the
latency prediction and whose remaining ``d`` elements are the opaque data
vector consumed by the parent unit (Eq. 5/6).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.plans.operators import LogicalType, arity_of


class NeuralUnit(nn.Module):
    """One operator type's neural network ``N_A``."""

    def __init__(
        self,
        logical_type: LogicalType,
        feature_size: int,
        data_size: int,
        hidden_layers: int,
        neurons: int,
        rng: Optional[np.random.Generator] = None,
        activation: str = "relu",
        dtype: np.dtype = np.float64,
    ) -> None:
        if feature_size < 0:
            raise ValueError("feature_size must be >= 0")
        self.logical_type = logical_type
        self.feature_size = feature_size
        self.data_size = data_size
        self.arity = arity_of(logical_type)
        self.in_features = feature_size + self.arity * (data_size + 1)
        if self.in_features == 0:
            raise ValueError(f"unit {logical_type} has an empty input vector")
        #: Compute precision of the unit's parameters (and therefore of
        #: every matmul routed through it).
        self.dtype = np.dtype(dtype)
        self.net = nn.mlp(
            self.in_features,
            [neurons] * hidden_layers,
            data_size + 1,
            rng=rng,
            activation=activation,
            dtype=self.dtype,
        )

    # ------------------------------------------------------------------
    def forward(self, x: nn.Tensor) -> nn.Tensor:
        """Map a ``(B, in_features)`` batch to ``(B, d+1)`` outputs."""
        if x.data.shape[-1] != self.in_features:
            raise ValueError(
                f"{self.logical_type.value} unit expected width {self.in_features}, "
                f"got {x.data.shape[-1]}"
            )
        return self.net(x)

    def inference_layers(self) -> tuple[tuple[tuple[nn.Linear, Callable], ...], nn.Linear]:
        """The layer stack as ``(hidden, last)`` for executors that run
        the layers directly (:meth:`~repro.core.levels.LevelPlan.forward_inference`).

        ``hidden`` pairs each hidden :class:`~repro.nn.Linear` of the
        :func:`~repro.nn.mlp` stack with the in-place forward of the
        activation after it; ``last`` is the output layer.  Layers, not
        arrays: the caller reads each layer's weight and bias when it
        runs it.  Built on each call and never stored on the unit, whose
        parameter walk would list a stored chain's weights twice.
        """
        modules = self.net.modules
        activations = [module.forward_inplace for module in modules[1::2]]
        return tuple(zip(modules[:-1:2], activations)), modules[-1]

    def forward_train(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, object]:
        """Raw-numpy forward caching layer activations for ``backward_train``.

        Input width is guaranteed by the level plan that assembled
        ``x``, so no re-validation on this hot path.
        ``out`` is forwarded to the final affine layer.
        """
        return self.net.forward_train(x, out=out)

    def backward_train(
        self, grad: np.ndarray, ctx: object, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Closed-form backward through the layer stack.

        Accumulates parameter gradients in place (into ``param.grad``
        buffers, shared across every plan position this unit serves) and
        returns the gradient w.r.t. the assembled input matrix — or
        ``None`` when the caller declines it (leaf positions, whose input
        is all constant features).
        """
        return self.net.backward_train(grad, ctx, need_input_grad)

    def assemble_input(
        self, features: nn.Tensor, child_outputs: list[nn.Tensor]
    ) -> nn.Tensor:
        """``F(op) ⌢ p_child1 ⌢ ... ⌢ p_childk`` with zero padding.

        ``features``: (B, feature_size); each child output: (B, d+1).
        Missing children (unary ops under a binary-arity type never occur,
        but leaves of unary types do) are padded with zeros so the input
        width stays fixed per type.
        """
        if len(child_outputs) > self.arity:
            raise ValueError(
                f"{self.logical_type.value} unit got {len(child_outputs)} children, "
                f"arity is {self.arity}"
            )
        parts = [features]
        parts.extend(child_outputs)
        batch = features.data.shape[0]
        for _ in range(self.arity - len(child_outputs)):
            parts.append(
                nn.Tensor(np.zeros((batch, self.data_size + 1), dtype=self.dtype))
            )
        return F.concat(parts, axis=1) if len(parts) > 1 else features

    def __repr__(self) -> str:
        return (
            f"NeuralUnit({self.logical_type.value}, in={self.in_features}, "
            f"d={self.data_size}, params={self.num_parameters()})"
        )
