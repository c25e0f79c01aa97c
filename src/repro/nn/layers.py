"""Standard layers: Linear, MLP, Dropout, Sequential."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .fused import fused_linear
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["Linear", "Sequential", "ReLU", "Dropout", "MLP"]


class Linear(Module):
    """Affine transformation ``y = x W^T + b``.

    Parameters
    ----------
    in_features:
        Size of the input's last dimension.
    out_features:
        Size of the output's last dimension.
    bias:
        Whether to add a learnable bias.
    rng:
        Generator used for weight initialisation; a default generator is
        created when omitted (discouraged in library code, handy in tests).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class ReLU(Module):
    """ReLU activation as a module (for use in :class:`Sequential`)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Dropout(Module):
    """Inverted dropout layer, active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer_{index}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and ReLU hidden
    activations.

    The AdaMEL classifier Θ (Eq. 7) is a 2-layer feed-forward network; this
    class also serves the deep baselines' classification heads.
    """

    def __init__(self, in_features: int, hidden_sizes: Sequence[int], out_features: int,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        layers: List[Module] = []
        previous = in_features
        for hidden in hidden_sizes:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(ReLU())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng=rng))
            previous = hidden
        layers.append(Linear(previous, out_features, rng=rng))
        self.network = Sequential(*layers)
        self._linears = tuple(layer for layer in layers if isinstance(layer, Linear))

    def _hidden(self, x: Tensor) -> Tensor:
        """Everything before the output layer; ``Linear`` + ``ReLU`` pairs run
        as one :func:`repro.nn.fused.fused_linear` node each."""
        layers = iter(self.network._layers[:-1])
        for layer in layers:
            if isinstance(layer, Linear):
                next(layers)  # the ReLU module, folded into the kernel
                x = fused_linear(x, layer.weight, layer.bias, activation="relu")
            else:
                x = layer(x)
        return x

    def forward(self, x: Tensor) -> Tensor:
        return self.network._layers[-1](self._hidden(x))

    def forward_sigmoid(self, x: Tensor) -> Tensor:
        """``sigmoid(self(x))`` with the output layer's affine + sigmoid as one
        graph node — the shape AdaMEL's classifier head Θ uses every step."""
        head: Linear = self.network._layers[-1]
        return fused_linear(self._hidden(x), head.weight, head.bias, activation="sigmoid")

    def forward_sigmoid_numpy(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward_sigmoid` for inference in plain numpy: no graph and
        no dropout, whatever the training mode."""
        for layer in self._linears:
            x = np.matmul(x, layer.weight.data.T)
            if layer.bias is not None:
                np.add(x, layer.bias.data, out=x)
            if layer is not self._linears[-1]:
                np.maximum(x, 0.0, out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
        np.add(x, 1.0, out=x)
        return np.divide(1.0, x, out=x)
