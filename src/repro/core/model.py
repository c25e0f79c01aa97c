"""The AdaMEL network (Section 4.2-4.3 of the paper).

Architecture, for a pair encoded as ``F`` token-embedding features ``h_j`` of
dimension ``D``:

1. **Per-feature affine transformation** (Eq. 4):
   ``x_j = ReLU(V_j h_j + b_j)`` with a separate ``V_j (H×D)``, ``b_j (H)``
   for every feature.
2. **Attention embedding function** ``f`` (Eq. 5/6): shared ``W (H'×H)`` and
   ``a (H')``; ``f(x)_j = softmax_j(a^T tanh(W x_j))``.  The vector ``f(x)``
   is the transferable knowledge K — the learned feature importance.
3. **Classifier** Θ (Eq. 7): a 2-layer MLP over the concatenation of the
   attention-scaled features ``σ(f(x)_j · x_j)``, ending in a sigmoid that
   yields the matching probability ``ŷ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.dtypes import get_default_dtype
from ..nn.attention import AdditiveAttention
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import AdaMELConfig

__all__ = ["AdaMELNetwork", "AdaMELForward"]


@dataclass
class AdaMELForward:
    """Outputs of one forward pass."""

    probabilities: Tensor  # (N,) matching probability ŷ
    attention: Tensor  # (N, F) attention scores f(x) — the knowledge K
    latent: Tensor  # (N, F, H) latent feature vectors x


class AdaMELNetwork(Module):
    """AdaMEL's neural network: per-feature affine + shared attention + MLP."""

    def __init__(self, num_features: int, embedding_dim: int, config: Optional[AdaMELConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive, got {embedding_dim}")
        config = config or AdaMELConfig()
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.num_features = num_features
        self.embedding_dim = embedding_dim
        self.hidden_dim = config.hidden_dim
        self.attention_dim = config.attention_dim

        # Per-feature affine transformation (Eq. 4): V (F, D, H), b (F, H).
        # Cast to the active compute-dtype policy (float32 training runs).
        dtype = get_default_dtype()
        scale = np.sqrt(2.0 / (embedding_dim + config.hidden_dim))
        self.V = Parameter(rng.normal(0.0, scale, size=(num_features, embedding_dim,
                                                        config.hidden_dim)).astype(dtype, copy=False),
                           name="V")
        self.b = Parameter(np.zeros((num_features, config.hidden_dim), dtype=dtype), name="b")

        # Shared attention embedding function f (Eq. 5/6).
        self.attention_fn = AdditiveAttention(config.hidden_dim, config.attention_dim, rng=rng)

        # Classifier Θ (Eq. 7): 2-layer feed-forward network over F·H inputs.
        self.classifier = MLP(num_features * config.hidden_dim,
                              [config.classifier_hidden_dim], 1,
                              activation="relu", dropout=config.dropout, rng=rng)

    # ------------------------------------------------------------------ #
    def latent_features(self, features: "np.ndarray | Tensor") -> Tensor:
        """Eq. (4): per-feature non-linear affine transformation.

        Parameters
        ----------
        features:
            Array of shape ``(N, F, D)`` — the token-embedding features ``h``.
            A pre-built :class:`Tensor` passes through unchanged (the
            graph-replay trainer feeds a reusable input-leaf tensor here).

        Returns
        -------
        Tensor of shape ``(N, F, H)``.
        """
        if isinstance(features, Tensor):
            h = features
        else:
            # Cast to the parameters' dtype so float32 networks keep
            # computing in float32 at inference time as well.
            h = Tensor(np.asarray(features, dtype=self.V.data.dtype))
        if h.ndim != 3 or h.shape[1] != self.num_features:
            raise ValueError(
                f"expected features of shape (N, {self.num_features}, {self.embedding_dim}), "
                f"got {h.shape}"
            )
        # (F, N, D) @ (F, D, H) -> (F, N, H): one GEMM per feature.  The
        # broadcast form (N, F, 1, D) @ (F, D, H) computes the same per-pair
        # dot products but as N*F single-row matmuls, and its backward
        # materialises an (N, F, D, H) temporary that is then summed over N.
        # ``contiguous()`` collapses the transposed view once so every
        # downstream elementwise op and flattening reshape (attention, the
        # classifier input) runs on contiguous memory.
        projected = (h.transpose(1, 0, 2) @ self.V).transpose(1, 0, 2).contiguous()
        return F.relu(projected + self.b)

    def attention_scores(self, latent: Tensor) -> Tensor:
        """Eq. (5)/(6): softmax-normalised attention over the F features."""
        return self.attention_fn(latent)

    def classify(self, latent: Tensor, attention: Tensor) -> Tensor:
        """Eq. (7): MLP over the attention-scaled latent features.

        The output layer runs as one fused ``linear+sigmoid`` node
        (:meth:`repro.nn.layers.MLP.forward_sigmoid`).
        """
        scaled = F.relu(attention.unsqueeze(-1) * latent)
        flattened = scaled.reshape(scaled.shape[0], self.num_features * self.hidden_dim)
        return self.classifier.forward_sigmoid(flattened).squeeze(-1)

    def forward(self, features: "np.ndarray | Tensor") -> AdaMELForward:
        """Full forward pass from encoded features to matching probabilities."""
        latent = self.latent_features(features)
        attention = self.attention_scores(latent)
        probabilities = self.classify(latent, attention)
        return AdaMELForward(probabilities=probabilities, attention=attention, latent=latent)

    # ------------------------------------------------------------------ #
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Inference-only matching probabilities (no autograd graph)."""
        with nn.no_grad():
            return self.forward(features).probabilities.data.copy()

    def attention_numpy(self, features: np.ndarray) -> np.ndarray:
        """Inference-only attention scores ``f(x)`` as a numpy array (N, F)."""
        with nn.no_grad():
            latent = self.latent_features(features)
            return self.attention_scores(latent).data.copy()

    def parameter_breakdown(self) -> dict:
        """Learnable-parameter counts per component (paper Section 4.5)."""
        affine = self.V.size + self.b.size
        attention = self.attention_fn.W.size + self.attention_fn.a.size
        classifier = sum(p.size for p in self.classifier.parameters())
        return {
            "per_feature_affine": int(affine),
            "attention_embedding": int(attention),
            "classifier": int(classifier),
            "total": int(affine + attention + classifier),
        }
