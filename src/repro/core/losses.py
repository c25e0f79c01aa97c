"""AdaMEL training objectives (Equations 8-14 of the paper).

* :func:`base_loss` — ``L_base``: binary cross-entropy over labeled source
  pairs (Eq. 8).
* :func:`target_adaptation_loss` — ``L_target``: KL divergence between the
  attention distribution averaged over the (unlabeled) target domain and each
  source pair's attention distribution (Eq. 10).
* :func:`attention_centroids` / :func:`centroid_mean_distances` — the
  positive/negative attention centroids of the source domain and the mean
  distances to them (Eq. 11).
* :func:`support_loss` — ``L_support``: cross-entropy over the support set
  weighted by each pair's attention-space distance to the corresponding
  source-domain centroid, normalised by the mean distance (Eq. 12); pairs
  that deviate from the seen sources get larger weights.
* :func:`combine_losses` — the λ/φ compositions of Eq. 9, 13, 14.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.dtypes import get_default_dtype
from ..nn.losses import binary_cross_entropy, kl_divergence
from ..nn.tensor import Tensor

__all__ = [
    "base_loss",
    "target_adaptation_loss",
    "attention_centroids",
    "centroid_mean_distances",
    "support_weights",
    "support_loss",
    "combine_losses",
]

_EPS = 1e-9


def _as_target_tensor(values: object) -> Tensor:
    """Coerce labels/constants to a float tensor (pass-through for tensors).

    The graph-replay trainer hands pre-built input-leaf tensors to the loss
    functions so their buffers can be refreshed per step; plain arrays keep
    the historical behaviour of being wrapped per call.
    """
    if isinstance(values, Tensor):
        return values
    return Tensor(np.asarray(values, dtype=get_default_dtype()))


def base_loss(probabilities: Tensor, labels: object, weights: object = None) -> Tensor:
    """``L_base`` (Eq. 8): mean binary cross-entropy on labeled pairs.

    With per-pair ``weights`` (see :func:`support_weights`) it is the
    differentiable part of ``L_support`` (Eq. 12).  ``labels`` and ``weights``
    may be plain arrays or pre-built tensors (the graph-replay trainer passes
    an input leaf and a recomputed-leaf weight tensor respectively).
    """
    return binary_cross_entropy(probabilities, _as_target_tensor(labels),
                                None if weights is None else _as_target_tensor(weights))


def target_adaptation_loss(source_attention: Tensor, target_attention_mean: object) -> Tensor:
    """``L_target`` (Eq. 10): KL(mean target attention || per-pair source attention).

    Parameters
    ----------
    source_attention:
        Attention scores of the source-domain batch, shape ``(N, F)``
        (graph-connected so that gradients update ``W``, ``a``, ``V``, ``b``).
    target_attention_mean:
        The attention vector averaged over the (batched) unlabeled target
        domain, shape ``(F,)``.  Treated as a constant for the current step,
        mirroring Algorithm 1 where it is computed before the batch loop.
        May be a pre-built input-leaf :class:`Tensor` (graph-replay trainer).
    """
    mean_target = _as_target_tensor(target_attention_mean)
    if mean_target.ndim != 1:
        raise ValueError("target_attention_mean must be a 1-D vector of length F")
    return kl_divergence(mean_target, source_attention, axis=-1)


def attention_centroids(attention: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (11): centroids of positive / negative attention vectors in ``D_S``.

    Returns ``(c_plus, c_minus)``; when a class is absent its centroid falls
    back to the overall mean so that downstream distances remain defined.
    """
    attention = np.asarray(attention, dtype=np.float64)
    labels = np.asarray(labels)
    if attention.ndim != 2:
        raise ValueError("attention must have shape (N, F)")
    if attention.shape[0] != labels.shape[0]:
        raise ValueError("attention and labels must agree on N")
    overall = attention.mean(axis=0) if len(attention) else np.zeros(attention.shape[1])
    positive = attention[labels == 1]
    negative = attention[labels == 0]
    c_plus = positive.mean(axis=0) if len(positive) else overall
    c_minus = negative.mean(axis=0) if len(negative) else overall
    return c_plus, c_minus


def centroid_mean_distances(attention: np.ndarray, labels: np.ndarray,
                            c_plus: np.ndarray, c_minus: np.ndarray) -> Tuple[float, float]:
    """Mean Euclidean distance of source pairs to their class centroid (Eq. 12 denominators)."""
    attention = np.asarray(attention, dtype=np.float64)
    labels = np.asarray(labels)
    positive = attention[labels == 1]
    negative = attention[labels == 0]
    d_plus = float(np.linalg.norm(positive - c_plus, axis=1).mean()) if len(positive) else 1.0
    d_minus = float(np.linalg.norm(negative - c_minus, axis=1).mean()) if len(negative) else 1.0
    return max(d_plus, _EPS), max(d_minus, _EPS)


def support_weights(attention: np.ndarray, labels: np.ndarray,
                    c_plus: np.ndarray, c_minus: np.ndarray,
                    mean_distance_plus: float, mean_distance_minus: float) -> np.ndarray:
    """Per-pair weights of ``L_support`` (Eq. 12), normalised to mean 1.

    Pure numpy on detached attention scores — factored out so
    :func:`support_loss` and the trainer (which refreshes the weights through
    a ``recomputed_leaf`` on every replay) share one code path.
    """
    labels = np.asarray(labels)
    attention = np.asarray(attention)
    # Follow the attention dtype so a float32 training run stays float32.
    weights = np.empty(len(labels), dtype=attention.dtype
                       if attention.dtype in (np.float32, np.float64) else np.float64)
    positive_mask = labels == 1
    negative_mask = ~positive_mask
    weights[positive_mask] = (np.linalg.norm(attention[positive_mask] - c_plus, axis=1)
                              / max(mean_distance_plus, _EPS))
    weights[negative_mask] = (np.linalg.norm(attention[negative_mask] - c_minus, axis=1)
                              / max(mean_distance_minus, _EPS))
    # Normalise to mean 1: the relative emphasis on deviating pairs is kept,
    # but the loss scale stays comparable to a plain cross-entropy even when
    # domain adaptation shrinks the source-domain attention spread (which
    # would otherwise make the d/d̄ ratios explode).
    return weights / max(float(weights.mean()), _EPS)


def support_loss(probabilities: Tensor, attention: Tensor, labels: np.ndarray,
                 c_plus: np.ndarray, c_minus: np.ndarray,
                 mean_distance_plus: float, mean_distance_minus: float) -> Tensor:
    """``L_support`` (Eq. 12): centroid-distance-weighted cross-entropy.

    Support pairs whose attention vector deviates from the corresponding
    source-domain centroid — i.e. pairs that look unlike anything seen in
    ``D_S`` — receive proportionally larger weights, steering the attention
    function towards the new data sources.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if probabilities.shape[0] != labels.shape[0]:
        raise ValueError("probabilities and labels must agree on N")
    weights = support_weights(attention.data, labels, c_plus, c_minus,
                              mean_distance_plus, mean_distance_minus)
    return base_loss(probabilities, labels, weights)


def combine_losses(l_base: Optional[Tensor] = None, l_target: Optional[Tensor] = None,
                   l_support: Optional[Tensor] = None, adaptation_weight: float = 0.98,
                   support_weight: float = 1.0) -> Tensor:
    """Combine the component losses into the variant objectives.

    * base only                → ``L_base`` (AdaMEL-base)
    * base + target            → Eq. (9)   (AdaMEL-zero)
    * base + support           → Eq. (13)  (AdaMEL-few)
    * base + target + support  → Eq. (14)  (AdaMEL-hyb)
    """
    if l_base is None:
        raise ValueError("l_base is required")
    if l_target is not None:
        total = l_base * (1.0 - adaptation_weight) + l_target * adaptation_weight
    else:
        total = l_base
    if l_support is not None:
        total = total + l_support * support_weight
    return total
