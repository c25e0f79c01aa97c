"""Floating-point compute policy for the numpy autograd substrate.

The engine defaults to ``float64`` everywhere, which keeps gradient checks
tight and makes the graph-replay executor bit-exact with the eager engine.
Training can opt into ``float32`` compute — roughly half the memory bandwidth
per step on CPU — by installing a :class:`DtypePolicy` for the duration of a
fit (``AdaMELConfig(dtype="float32")`` threads this through the trainer).

The policy governs the dtype of

* new :class:`~repro.nn.tensor.Tensor` payloads built from python lists,
  scalars or integer arrays (existing ``float32``/``float64`` arrays keep
  their dtype so a float32 network keeps computing in float32 even after the
  policy context has exited, e.g. at inference time);
* weight initialisation in :mod:`repro.nn.init`;
* optimiser state in :class:`repro.nn.optim.Adam` (allocated ``zeros_like``
  the parameters, so it follows the parameters' dtype automatically).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

__all__ = ["DtypePolicy", "get_default_dtype", "using_dtype", "resolve_dtype"]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

DtypeLike = Union[str, type, np.dtype]


def resolve_dtype(dtype: DtypeLike) -> np.dtype:
    """Normalise a dtype spec to ``np.float32``/``np.float64`` or raise."""
    resolved = np.dtype(dtype)
    if resolved not in _FLOAT_DTYPES:
        raise ValueError(
            f"compute dtype must be float32 or float64, got {resolved!r}"
        )
    return resolved


class DtypePolicy:
    """The process-wide compute dtype used for new tensors and weights."""

    def __init__(self, compute_dtype: DtypeLike = np.float64) -> None:
        self.compute_dtype = resolve_dtype(compute_dtype)

    def __repr__(self) -> str:
        return f"DtypePolicy({self.compute_dtype.name})"


_ACTIVE = DtypePolicy(np.float64)


def get_default_dtype() -> np.dtype:
    """Return the dtype new float tensors are created with."""
    return _ACTIVE.compute_dtype


@contextmanager
def using_dtype(dtype: DtypeLike) -> Iterator[np.dtype]:
    """Temporarily switch the compute dtype (used by the trainer)."""
    previous = _ACTIVE.compute_dtype
    _ACTIVE.compute_dtype = resolve_dtype(dtype)
    try:
        yield _ACTIVE.compute_dtype
    finally:
        _ACTIVE.compute_dtype = previous
