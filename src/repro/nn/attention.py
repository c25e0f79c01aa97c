"""Attention mechanisms.

``AdditiveAttention`` implements the single-layer attention network used by
AdaMEL's attention embedding function ``f`` (Eq. 5): an energy score
``e_j = a^T tanh(W x_j)`` per feature, normalised with a softmax across the
``F`` features.  ``ScaledDotProductAttention`` and ``SelfAttentionEncoder``
back the token-level baselines (DeepMatcher's attentive summarisation, Ditto's
transformer-lite encoder).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .fused import fused_attention_softmax
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["AdditiveAttention", "ScaledDotProductAttention", "SelfAttentionEncoder"]


class AdditiveAttention(Module):
    """Shared additive attention over a set of feature vectors.

    Given input of shape ``(batch, F, H)`` (one ``H``-dimensional latent
    vector per relational feature), produces attention scores of shape
    ``(batch, F)`` that sum to one across the ``F`` axis.  ``W`` and ``a`` are
    shared across all features, exactly as in Eq. (5)/(6) of the paper.
    """

    def __init__(self, in_features: int, attention_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if in_features <= 0 or attention_dim <= 0:
            raise ValueError("attention dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.attention_dim = attention_dim
        # W: (H', H) shared linear transformation; a: (H',) attention vector.
        self.W = Parameter(init.xavier_uniform((attention_dim, in_features), rng), name="W")
        self.a = Parameter(init.xavier_uniform((attention_dim,), rng), name="a")

    def forward(self, x: Tensor) -> Tensor:
        """Return softmax-normalised attention scores over the feature axis.

        Runs as one fused graph node (projection GEMM + tanh + energy dot +
        softmax with an analytic jacobian); the eager composition is the
        kernel's oracle in ``tests/nn/composed_oracle.py``.
        """
        return fused_attention_softmax(as_tensor(x), self.W, self.a)


class ScaledDotProductAttention(Module):
    """Scaled dot-product attention ``softmax(QK^T / sqrt(d)) V``."""

    def __init__(self) -> None:
        super().__init__()

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Return ``(context, weights)``.

        Shapes: ``query (..., Lq, d)``, ``key (..., Lk, d)``,
        ``value (..., Lk, dv)``; ``mask`` broadcasts to ``(..., Lq, Lk)`` with
        zeros marking padded positions.
        """
        query = as_tensor(query)
        key = as_tensor(key)
        value = as_tensor(value)
        d = query.shape[-1]
        scores = (query @ key.transpose(*range(key.ndim - 2), key.ndim - 1, key.ndim - 2)) / float(np.sqrt(d))
        if mask is not None:
            penalty = np.where(np.asarray(mask) > 0, 0.0, -1e9)
            scores = scores + Tensor(penalty)
        weights = F.softmax(scores, axis=-1)
        return weights @ value, weights


class SelfAttentionEncoder(Module):
    """A single-block self-attention encoder ("transformer-lite").

    Serves as the offline stand-in for the pretrained language models used by
    the Ditto baseline: token embeddings are contextualised with one
    self-attention block followed by a position-wise feed-forward layer.
    """

    def __init__(self, model_dim: int, feedforward_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        feedforward_dim = feedforward_dim or 2 * model_dim
        self.model_dim = model_dim
        self.query_proj = Linear(model_dim, model_dim, rng=rng)
        self.key_proj = Linear(model_dim, model_dim, rng=rng)
        self.value_proj = Linear(model_dim, model_dim, rng=rng)
        self.attention = ScaledDotProductAttention()
        self.ff_in = Linear(model_dim, feedforward_dim, rng=rng)
        self.ff_out = Linear(feedforward_dim, model_dim, rng=rng)

    def forward(self, tokens: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Contextualise a ``(batch, L, D)`` token tensor; returns same shape."""
        tokens = as_tensor(tokens)
        q = self.query_proj(tokens)
        k = self.key_proj(tokens)
        v = self.value_proj(tokens)
        attn_mask = None
        if mask is not None:
            mask = np.asarray(mask)
            attn_mask = mask[..., None, :]  # broadcast over query positions
        context, _ = self.attention(q, k, v, mask=attn_mask)
        hidden = context + tokens  # residual connection
        transformed = self.ff_out(F.relu(self.ff_in(hidden)))
        return transformed + hidden
