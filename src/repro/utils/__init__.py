"""Shared utilities: deterministic RNG handling, timing, serialisation."""

from .rng import RandomState, spawn_rng
from .serialization import load_json, load_npz, save_json, save_npz
from .timer import Timer
from .validation import require_fraction, require_positive

__all__ = [
    "RandomState",
    "spawn_rng",
    "Timer",
    "save_json",
    "load_json",
    "save_npz",
    "load_npz",
    "require_positive",
    "require_fraction",
]
