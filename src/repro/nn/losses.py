"""Loss functions used by AdaMEL and the deep baselines.

The AdaMEL paper defines:

* ``L_base`` — binary cross-entropy over labeled source-domain pairs (Eq. 8);
* ``L_target`` — KL divergence between per-pair source attention distributions
  and the averaged target-domain attention distribution (Eq. 10);
* ``L_support`` — centroid-distance-weighted cross-entropy over the labeled
  support set (Eq. 12).

``L_support`` lives in :mod:`repro.core.losses` because it needs the model's
attention head; the generic losses live here.
"""

from __future__ import annotations

from typing import Optional

from .fused import fused_binary_cross_entropy, fused_kl_divergence
from .tensor import Tensor, as_tensor

__all__ = ["binary_cross_entropy", "kl_divergence"]

_EPS = 1e-9


def binary_cross_entropy(predictions: Tensor, targets: Tensor,
                         weights: Optional[Tensor] = None) -> Tensor:
    """Mean binary cross-entropy between probabilities and 0/1 targets.

    This is the paper's ``L_base`` (Eq. 8).  ``weights`` allows per-sample
    re-weighting, which the support-set loss (Eq. 12) builds on.  Runs as one
    fused node (:func:`repro.nn.fused.fused_binary_cross_entropy`); ``targets``
    and ``weights`` are constants of the shape of ``predictions``.
    """
    return fused_binary_cross_entropy(predictions, targets, weights, eps=_EPS)


def kl_divergence(p: Tensor, q: Tensor, axis: int = -1) -> Tensor:
    """KL(p || q) summed over ``axis`` then averaged over remaining dims.

    In the paper's ``L_target`` (Eq. 10), ``p`` is the attention distribution
    averaged over the target domain and ``q`` is a source-domain pair's
    attention distribution; the divergence is summed over the ``F`` features
    and averaged over the batch.
    """
    return fused_kl_divergence(as_tensor(p), as_tensor(q), axis=axis, eps=_EPS)

