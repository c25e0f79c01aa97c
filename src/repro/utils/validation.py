"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

__all__ = ["require_positive", "require_fraction"]


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_fraction(value: float, name: str, inclusive: bool = True) -> float:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1] (or (0, 1))."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value
