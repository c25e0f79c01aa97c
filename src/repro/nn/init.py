"""Weight initialisation schemes for :mod:`repro.nn` modules.

All initialisers return arrays in the process-wide compute dtype from
:mod:`repro.nn.dtypes` (float64 unless a policy overrides it), so a
``float32`` training run allocates float32 weights from the start.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dtypes import get_default_dtype

__all__ = ["xavier_uniform", "zeros"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Return (fan_in, fan_out) for a weight of the given shape."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())
