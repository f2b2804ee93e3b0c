"""Named parameter registry shared by the model and the optimizer."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, linear


class Parameter:
    """A named learnable tensor with an optional learning-rate multiplier.

    It owns C-contiguous, writeable float64 storage (copied from ``data``
    only when ``data`` is not already so), which the optimizer and
    ``load_state_dict`` update in place."""

    __slots__ = ("name", "tensor", "lr_mult")

    def __init__(self, name: str, data: np.ndarray, lr_mult: float = 1.0):
        self.name = name
        self.tensor = Tensor(np.require(data, dtype=np.float64, requirements=("C", "W")))
        self.tensor.requires_grad = True
        self.lr_mult = float(lr_mult)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.tensor.shape})"


class ParameterRegistry:
    """Ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data: np.ndarray, lr_mult: float = 1.0) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(name, data, lr_mult=lr_mult)
        self._params[name] = p
        return p.tensor

    def get(self, name: str) -> Parameter:
        return self._params[name]

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.tensor.grad = None

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> the live parameter array, not copied: read-only use,
        such as writing a checkpoint."""
        return {name: p.data for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self._params) - set(state))
        extra = sorted(set(state) - set(self._params))
        if missing or extra:
            # Counts and the first two names a side, not every name.
            raise ValueError(f"parameter name mismatch: {len(missing)} missing {missing[:2]},"
                             f" {len(extra)} unexpected {extra[:2]}")
        for name, p in self._params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} != {p.data.shape}")
            np.copyto(p.data, arr)


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Glorot-normal initialization."""
    if shape is None:
        shape = (fan_in, fan_out)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


class LinearParams:
    """Weight/bias pair registered under ``prefix.weight`` / ``prefix.bias``."""

    def __init__(self, registry: ParameterRegistry, prefix: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.weight = registry.add(f"{prefix}.weight", xavier(rng, d_in, d_out))
        self.bias = registry.add(f"{prefix}.bias", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)
