"""Neural-network modules: ``Module``, ``Linear``, ``Sequential``, activations.

These mirror the PyTorch module API at the fidelity QPP Net needs: named
parameters, composition, train/eval switching, and state dict export.
A neural unit (paper §4.1) is a ``Sequential`` of ``Linear``+``ReLU``
hidden layers plus a linear output layer; see :mod:`repro.core.unit`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from . import functional as F
from .init import INITIALIZERS
from .tensor import Tensor, inference_mode


class Module:
    """Base class providing parameter discovery and (de)serialization."""

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward over a raw array (serving hot path).

        Subclasses on the inference hot path override this with pure
        numpy arithmetic that is bit-identical to :meth:`forward`; the
        fallback routes through :meth:`forward` under
        :func:`~repro.nn.tensor.inference_mode`, which is slower but
        always consistent.
        """
        with inference_mode():
            return self.forward(Tensor(x)).data

    # ------------------------------------------------------------------
    # Compiled (tape-free) training path
    # ------------------------------------------------------------------
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """Raw-numpy forward that also returns the backward context.

        The context holds exactly the intermediates :meth:`backward_train`
        needs (inputs for affine maps, masks for activations) — no tape,
        no closures.  Only modules with a closed-form backward implement
        this pair; the compiled training engine in :mod:`repro.core`
        requires it of every module on the unit's layer stack.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support the compiled training path"
        )

    def backward_train(
        self, grad: np.ndarray, ctx: object, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Closed-form backward: accumulate parameter gradients in place
        (same ``+=`` semantics as :meth:`Tensor._accumulate`, so the
        additions land in flat-buffer views when a
        :class:`~repro.nn.optim.FlatParameterSpace` bound them) and
        return the input gradient.

        ``need_input_grad=False`` lets the caller skip the input-gradient
        product when nothing upstream consumes it (e.g. a leaf unit whose
        input is all constant plan features); ``None`` is returned then.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support the compiled training path"
        )

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            # Cast to the parameter's own precision: a float64 checkpoint
            # loads into a float32 model (and vice versa), and a
            # same-dtype round trip is bitwise.
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            # In-place copy: parameters may be views into a flat buffer
            # (FlatParameterSpace), which rebinding would silently orphan.
            np.copyto(param.data, value)


class Linear(Module):
    """Affine transformation ``y = x @ W + b`` (paper Eq. 1, row-vector form)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "kaiming",
        bias: bool = True,
        dtype: np.dtype = np.float64,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        # Draw in float64 and cast: a float32 layer starts at exactly the
        # rounded float64 init (same rng stream either way), which is what
        # lets the precision tiers be compared seed-for-seed.
        weight, bias_vec = INITIALIZERS[init](in_features, out_features, rng)
        dtype = np.dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(weight.astype(dtype, copy=False), requires_grad=True, name="weight")
        self.bias = (
            Tensor(bias_vec.astype(dtype, copy=False), requires_grad=True, name="bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input of width {self.in_features}, got {x.data.shape[-1]}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_numpy(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Tape-free forward; ``out`` targets the matmul at a caller buffer
        (e.g. a level-fused plan's global output block) instead of a fresh
        allocation.  ``out`` must not alias ``x``."""
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input of width {self.in_features}, got {x.shape[-1]}"
            )
        y = np.matmul(x, self.weight.data, out=out) if out is not None else x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y

    def forward_train(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        # Hot path: width is guaranteed by the compiled schedule, and the
        # matmul output (fresh or the caller's block) lets the bias add
        # run in place.
        y = np.matmul(x, self.weight.data, out=out) if out is not None else x @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y, x

    def backward_train(
        self, grad: np.ndarray, ctx: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        x = ctx
        weight, bias = self.weight, self.bias
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        weight.grad += x.T @ grad
        if bias is not None:
            if bias.grad is None:
                bias.grad = np.zeros_like(bias.data)
            bias.grad += np.add.reduce(grad, axis=0)
        if not need_input_grad:
            return None
        return grad @ weight.data.T

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class Activation(Module):
    """An elementwise activation that can also overwrite its input."""

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward written over ``x`` (which the caller owns)."""
        raise NotImplementedError


class ReLU(Activation):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return x * (x > 0)

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        # Equal to ``x * (x > 0)`` for every finite or NaN input; one
        # pass and no mask allocation.
        return np.maximum(x, 0.0, out=x)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = x > 0
        return x * mask, mask

    def backward_train(
        self, grad: np.ndarray, ctx: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray:
        return grad * ctx

    def __repr__(self) -> str:
        return "ReLU()"


class Sigmoid(Activation):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        np.exp(np.negative(x, out=x), out=x)
        x += 1.0
        return np.divide(1.0, x, out=x)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = 1.0 / (1.0 + np.exp(-x))
        return out, out

    def backward_train(
        self, grad: np.ndarray, ctx: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray:
        return grad * ctx * (1.0 - ctx)


class Tanh(Activation):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x, out=x)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = np.tanh(x)
        return out, out

    def backward_train(
        self, grad: np.ndarray, ctx: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray:
        return grad * (1.0 - ctx**2)


class Lambda(Module):
    """Wrap a stateless differentiable function as a module."""

    def __init__(self, fn: Callable[[Tensor], Tensor], label: str = "Lambda") -> None:
        self.fn = fn
        self.label = label

    def forward(self, x: Tensor) -> Tensor:
        return self.fn(x)

    def __repr__(self) -> str:
        return f"{self.label}()"


class Sequential(Module):
    """Function composition of modules (paper Eq. 2)."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def forward_numpy(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Tape-free forward; ``out``, when given, is forwarded to the final
        module (which must accept it — the unit stacks built by :func:`mlp`
        always end in a :class:`Linear`).  An activation that follows a
        :class:`Linear` runs in place on that layer's fresh output — a
        temporary this stack owns — instead of allocating another."""
        last = len(self.modules) - 1
        owned = False
        for i, module in enumerate(self.modules):
            if i == last and out is not None:
                return module.forward_numpy(x, out=out)
            if owned and isinstance(module, Activation):
                module.forward_inplace(x)
            else:
                x = module.forward_numpy(x)
                owned = isinstance(module, Linear)
        return x

    def forward_train(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, list[object]]:
        tape = []
        last = len(self.modules) - 1
        for i, module in enumerate(self.modules):
            if out is not None and i == last:
                x, ctx = module.forward_train(x, out=out)
            else:
                x, ctx = module.forward_train(x)
            tape.append(ctx)
        return x, tape

    def backward_train(
        self, grad: np.ndarray, ctx: list[object], need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        last = len(self.modules) - 1
        for i, (module, saved) in enumerate(zip(reversed(self.modules), reversed(ctx))):
            grad = module.backward_train(grad, saved, need_input_grad or i < last)
        return grad

    def append(self, module: Module) -> None:
        self.modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.modules)
        return f"Sequential({inner})"


def mlp(
    in_features: int,
    hidden_sizes: list[int],
    out_features: int,
    rng: Optional[np.random.Generator] = None,
    activation: str = "relu",
    dtype: np.dtype = np.float64,
) -> Sequential:
    """Build the hidden-layers-plus-output-layer stack used by neural units.

    ``hidden_sizes`` gives the width of each hidden layer; the output layer
    is a plain affine map (the latency/data-vector head stays linear, as in
    the paper's Figure 2).  ``dtype`` sets the parameter (and therefore
    compute) precision of every layer.
    """
    activations: dict[str, type[Module]] = {"relu": ReLU, "sigmoid": Sigmoid, "tanh": Tanh}
    if activation not in activations:
        raise ValueError(f"unknown activation {activation!r}")
    act = activations[activation]
    layers: list[Module] = []
    width = in_features
    for hidden in hidden_sizes:
        layers.append(Linear(width, hidden, rng=rng, dtype=dtype))
        layers.append(act())
        width = hidden
    layers.append(Linear(width, out_features, rng=rng, dtype=dtype))
    return Sequential(*layers)
