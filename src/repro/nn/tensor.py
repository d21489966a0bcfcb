"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper
implements QPP Net with PyTorch; PyTorch is unavailable offline, so we
provide the same capability — dynamic, per-input computation graphs with
exact gradients — with a small taped autodiff engine.

A :class:`Tensor` wraps a floating-point numpy array (``float64`` by
default; ``float32`` arrays are kept as-is so precision-tiered models
can run the taped reference in their own dtype).  Operations on tensors
record a backward closure on the operation tape; :meth:`Tensor.backward`
replays the tape in reverse topological order, accumulating gradients.
Dynamic graphs (a different topology per input, as required by
plan-structured networks) fall out naturally because the tape is rebuilt on
every forward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]


def _as_array(value: ArrayLike) -> np.ndarray:
    # Preserve the compute precision of float32/float64 inputs; anything
    # else (ints, bools, Python lists) lands in the float64 default.
    arr = np.asarray(value)
    if arr.dtype != np.float32 and arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return arr


#: Per-thread inference flag.  While set, :meth:`Tensor._make` returns
#: plain tensors — no parents, no backward closure retained, no tape — so
#: hot-path forward evaluation pays only for the numpy arithmetic.
#: Thread-local so a serving thread's flag can never strand or leak into
#: a training thread's tape.
_INFERENCE_STATE = threading.local()


class _InferenceModeContext:
    """Re-entrant context manager toggling this thread's inference flag."""

    __slots__ = ("_previous",)

    def __enter__(self) -> "_InferenceModeContext":
        self._previous = getattr(_INFERENCE_STATE, "active", False)
        _INFERENCE_STATE.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        _INFERENCE_STATE.active = self._previous


def inference_mode() -> _InferenceModeContext:
    """Disable autodiff taping inside a ``with`` block (this thread only).

    Forward results computed under this context carry no graph: they do
    not require grad, hold no parent references, and drop their backward
    closures immediately.  Analogue of ``torch.inference_mode()`` for the
    serving hot path; see :mod:`repro.serving`.
    """
    return _InferenceModeContext()


def is_inference_mode() -> bool:
    """Whether tape recording is disabled on the current thread."""
    return getattr(_INFERENCE_STATE, "active", False)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting.

    When a forward op broadcast an operand of ``shape`` up to the result
    shape, the gradient flowing back must be summed over the broadcast axes
    so that ``grad.shape == shape`` again.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Array content (float32/float64 kept as-is, anything else copied
        to ``float64``).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.data.shape} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if getattr(_INFERENCE_STATE, "active", False):
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Wrap an operand, keeping Python scalars in *this* tensor's dtype.

        Bare ints/floats are constants, not data: a float32 tensor times
        ``2.0`` must stay float32 (numpy's 0-d float64 array would
        otherwise promote the result).  Array operands keep their own
        dtype and promote normally.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # Autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (only a scalar output may omit it).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.data.shape))
            other_t._accumulate(unbroadcast(grad, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.data.shape))
            other_t._accumulate(unbroadcast(-grad, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other_t.data, self.data.shape))
            other_t._accumulate(unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = self._coerce(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other_t.data, self.data.shape))
            other_t._accumulate(
                unbroadcast(-grad * self.data / (other_t.data**2), other_t.data.shape)
            )

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-style alias
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape)), requires_grad=requires_grad)


def ones(shape: Iterable[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(tuple(shape)), requires_grad=requires_grad)
