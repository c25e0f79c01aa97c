"""Reference for :meth:`repro.pipeline.MinHashLSHIndex._band_keys`: the plain
per-band loop, one band and one row at a time.

The index folds every band at once; this loop is what it must equal bit for
bit.  Each band's rows are combined with the polynomial hash
``combined = (combined * 1_000_003 + row) mod (2**31 - 1)``.
"""

from __future__ import annotations

import numpy as np

_HASH_RANGE = np.uint64((1 << 31) - 1)
_MIXER = np.uint64(1_000_003)


def band_keys_by_loop(signatures: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """``(bands, N)`` keys of ``(bands * rows, N)`` uint64 ``signatures``."""
    keys = np.empty((bands, signatures.shape[1]), dtype=np.uint64)
    for band in range(bands):
        block = signatures[band * rows:(band + 1) * rows]
        combined = block[0].copy()
        for row in block[1:]:
            combined = (combined * _MIXER + row) % _HASH_RANGE
        keys[band] = combined
    return keys
