"""Differentiable functions over :class:`repro.nn.tensor.Tensor`.

Contains the nonlinearities and structural operations (concatenation,
splitting, stacking) that plan-structured networks are assembled from.
Concatenation in particular implements the paper's ``⌢`` operator
(Eq. 6): a unit's input is ``F(op) ⌢ child outputs``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, the paper's activation of choice (§6)."""
    mask = x.data > 0
    data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data * (1.0 - data))

    return Tensor._make(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - data**2))

    return Tensor._make(data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data)

    return Tensor._make(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)

    return Tensor._make(data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * 0.5 / data)

    return Tensor._make(data, (x,), backward)


def absolute(x: Tensor) -> Tensor:
    data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.sign(x.data))

    return Tensor._make(data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation (the paper's ``⌢`` operator)."""
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    datas = [t.data for t in tensors]
    data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index: list = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def split(x: Tensor, sizes: Sequence[int], axis: int = -1) -> list[Tensor]:
    """Inverse of :func:`concat`: split along ``axis`` into chunks."""
    total = sum(sizes)
    if x.data.shape[axis] != total:
        raise ValueError(f"split sizes {sizes} do not cover axis of length {x.data.shape[axis]}")
    outputs: list[Tensor] = []
    start = 0
    for size in sizes:
        index: list = [slice(None)] * x.data.ndim
        index[axis] = slice(start, start + size)
        key = tuple(index)
        data = x.data[key]

        def backward(grad: np.ndarray, key=key) -> None:
            full = np.zeros_like(x.data)
            full[key] = grad
            x._accumulate(full)

        outputs.append(Tensor._make(data, (x,), backward))
        start += size
    return outputs


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack of equally-shaped tensors along a new axis."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, slices):
            t._accumulate(g)

    return Tensor._make(data, tuple(tensors), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed only where unclipped."""
    data = np.clip(x.data, low, high)
    mask = (x.data > low) & (x.data < high)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, (x,), backward)
