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

:class:`DomainAttention` evaluates steps 1-2 for a whole fixed domain — the
per-epoch recomputations of Algorithms 1 and 2 — on its distinct
(feature, vector) rows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn.dtypes import get_default_dtype
from ..nn.attention import AdditiveAttention
from ..nn.fused import fused_feature_affine_relu, fused_scale_relu_flatten
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import AdaMELConfig

__all__ = ["AdaMELNetwork", "AdaMELForward", "DomainAttention"]


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
        # One GEMM per feature ((F, N, D) @ (F, D, H)); the broadcast form
        # (N, F, 1, D) @ (F, D, H) would run N*F single-row matmuls.
        return fused_feature_affine_relu(h, self.V, self.b)

    def attention_scores(self, latent: Tensor) -> Tensor:
        """Eq. (5)/(6): softmax-normalised attention over the F features."""
        return self.attention_fn(latent)

    def classify(self, latent: Tensor, attention: Tensor) -> Tensor:
        """Eq. (7): MLP over the attention-scaled latent features.

        Three fused nodes: attention-scale + ReLU + flatten, the hidden
        ``linear+relu`` and the ``linear+sigmoid`` output layer.
        """
        flattened = fused_scale_relu_flatten(attention, latent)
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


class DomainAttention:
    """``attention_numpy`` of one fixed set of pairs, priced by its distinct rows.

    By Eq. 4-6 the attention *energy* of a (pair, feature) depends only on the
    feature index ``j`` and the vector ``h_j``, and low-cardinality or missing
    attributes give many pairs the same vector.  Built once per fit and domain:
    the byte-distinct rows of ``features[:, j, :]`` for every ``j``, stacked
    CSR-style into one ``(U, D)`` matrix with per-feature ``offsets``, plus the
    ``(N, F)`` ``index`` of every pair's row.  Each call evaluates the energies
    of the ``U`` rows with the network's *current* parameters, gathers them to
    ``(N, F)`` and applies the row softmax, in buffers allocated here.  Equal
    to ``attention_numpy`` up to GEMM rounding (the product shapes differ).
    """

    def __init__(self, network: AdaMELNetwork, features: np.ndarray) -> None:
        dtype = network.V.data.dtype
        num_pairs, num_features, dim = features.shape
        if num_features != network.num_features or dim != network.embedding_dim:
            raise ValueError(
                f"expected features of shape (N, {network.num_features}, "
                f"{network.embedding_dim}), got {features.shape}")
        self.network = network
        self.index = np.empty((num_pairs, num_features), dtype=np.intp)
        self.offsets = [0]
        distinct = []
        for j in range(num_features):
            column = np.ascontiguousarray(features[:, j, :], dtype=dtype)
            # Rows compared as opaque bytes: +0.0 and -0.0 stay apart.
            keys = column.view(np.dtype((np.void, dim * column.itemsize))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct.append(column[first])
            self.index[:, j] = inverse + self.offsets[-1]
            self.offsets.append(self.offsets[-1] + len(first))
        self.rows = np.concatenate(distinct)                              # (U, D)
        self._latent = np.empty((len(self.rows), network.hidden_dim), dtype=dtype)
        self._projected = np.empty((len(self.rows), network.attention_dim), dtype=dtype)
        self._energy = np.empty(len(self.rows), dtype=dtype)
        self._attention = np.empty((num_pairs, num_features), dtype=dtype)
        self._row = np.empty((num_pairs, 1), dtype=dtype)

    def __call__(self) -> np.ndarray:
        """Attention scores ``(N, F)``: the plan's own buffer, overwritten by
        the next call."""
        network = self.network
        V, b = network.V.data, network.b.data
        latent, projected, energy = self._latent, self._projected, self._energy
        for j, (start, stop) in enumerate(zip(self.offsets, self.offsets[1:])):
            np.matmul(self.rows[start:stop], V[j], out=latent[start:stop])
            latent[start:stop] += b[j]
        np.maximum(latent, 0.0, out=latent)
        np.matmul(latent, network.attention_fn.W.data.T, out=projected)
        np.tanh(projected, out=projected)
        np.matmul(projected, network.attention_fn.a.data, out=energy)
        attention, row = self._attention, self._row
        np.take(energy, self.index, out=attention)
        np.amax(attention, axis=-1, keepdims=True, out=row)
        np.subtract(attention, row, out=attention)
        np.exp(attention, out=attention)
        np.sum(attention, axis=-1, keepdims=True, out=row)
        np.divide(attention, row, out=attention)
        return attention
