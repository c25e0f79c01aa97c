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

Training runs the :class:`Tensor` forward (:meth:`AdaMELNetwork.forward`).
Inference runs :meth:`AdaMELNetwork.forward_numpy`: plain numpy over an
encoded batch's :class:`~repro.features.encoder.SlotPlan`, with steps 1-2 once
per distinct attribute slot.  :class:`DomainAttention` evaluates steps 1-2 for
a whole fixed domain — the per-epoch recomputations of Algorithms 1 and 2 —
on its distinct (feature, vector) rows, through the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..features.encoder import EncodedBatch, SlotPlan
from ..nn.dtypes import get_default_dtype
from ..nn.attention import AdditiveAttention
from ..nn.fused import fused_feature_affine_relu, fused_scale_relu_flatten
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .config import AdaMELConfig

# What the numpy forward accepts: an encoded batch, or dense (N, F, D) features.
NumpyInputs = Union[EncodedBatch, np.ndarray]

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
                              dropout=config.dropout, rng=rng)

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
    def forward_numpy(self, inputs: NumpyInputs) -> Tuple[np.ndarray, np.ndarray]:
        """Inference forward, Eq. 4-7: ``(probabilities (N,), attention (N, F))``.

        Eq. 4-6 run once per distinct slot row of the batch's plan; the
        gather, the softmax and the classifier run per pair.  Plain numpy: no
        autograd graph and no dropout, so the result depends on the
        parameters alone, whatever the training mode.  Dense features are
        planned over their byte-distinct rows first.
        """
        plan = self._plan(inputs)
        latent, attention = self._attend(plan)
        # (N, A, K, H) = (N, F, H): feature a K + k of pair n is latent[index[n, a], k].
        x = np.take(latent, plan.index, axis=0).reshape(
            len(plan), self.num_features, self.hidden_dim)
        # Eq. 7's ReLU of f(x)_j * x_j is the identity: x_j >= 0, f(x)_j > 0.
        np.multiply(attention[..., None], x, out=x)
        probabilities = self.classifier.forward_sigmoid_numpy(
            x.reshape(len(plan), self.num_features * self.hidden_dim))
        return probabilities[:, 0], attention

    def predict_proba(self, inputs: NumpyInputs) -> np.ndarray:
        """Matching probabilities ``(N,)`` (:meth:`forward_numpy`)."""
        return self.forward_numpy(inputs)[0]

    def attention_numpy(self, inputs: NumpyInputs) -> np.ndarray:
        """Attention scores ``f(x)`` ``(N, F)``: Eq. 4-6 of :meth:`forward_numpy`."""
        return self._attend(self._plan(inputs))[1]

    def _plan(self, inputs: NumpyInputs) -> SlotPlan:
        plan = (inputs.plan if isinstance(inputs, EncodedBatch)
                else SlotPlan.from_features(np.asarray(inputs)))
        if plan.num_features != self.num_features or plan.rows.shape[2] != self.embedding_dim:
            raise ValueError(
                f"expected {self.num_features} features of dimension {self.embedding_dim}, "
                f"got {plan.num_features} of dimension {plan.rows.shape[2]}")
        return plan

    def _attend(self, plan: SlotPlan) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 4-6 on a plan: the slot latents ``(S, K, H)`` and the
        attention ``(N, F)``."""
        latent, energy = self._slot_latent_energy(plan.rows, plan.offsets)
        logits = np.take(energy, plan.index, axis=0).reshape(len(plan), plan.num_features)
        return latent, _softmax_rows(logits)

    def _slot_latent_energy(self, rows: np.ndarray, offsets: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 4 and the energies ``a^T tanh(W x)`` of Eq. 5 for every slot row.

        ``rows`` ``(S, K, D)`` are attribute-major, attribute ``a``'s slots at
        ``offsets[a]:offsets[a + 1]``, so each attribute is one
        ``(K, S_a, D) @ (K, D, H)`` GEMM.  Returns the latents ``(S, K, H)``
        and the energies ``(S, K)``.
        """
        dtype, hidden = self.V.data.dtype, self.hidden_dim
        rows = rows.astype(dtype, copy=False)
        num_slots, kinds, dim = rows.shape
        V = self.V.data.reshape(-1, kinds, dim, hidden)
        latent = np.empty((num_slots, kinds, hidden), dtype=dtype)
        by_kind, latent_by_kind = rows.transpose(1, 0, 2), latent.transpose(1, 0, 2)
        bounds = offsets.tolist()
        for a, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            np.matmul(by_kind[:, start:stop], V[a], out=latent_by_kind[:, start:stop])
        # Each slot's bias b_{a K + k}, added in one pass.
        latent += np.repeat(self.b.data.reshape(-1, kinds, hidden), np.diff(offsets), axis=0)
        np.maximum(latent, 0.0, out=latent)
        projected = np.matmul(latent.reshape(-1, hidden), self.attention_fn.W.data.T)
        np.tanh(projected, out=projected)
        energy = np.matmul(projected, self.attention_fn.a.data)
        return latent, energy.reshape(num_slots, kinds)

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


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place."""
    row = np.amax(logits, axis=-1, keepdims=True)
    np.subtract(logits, row, out=logits)
    np.exp(logits, out=logits)
    np.sum(logits, axis=-1, keepdims=True, out=row)
    np.divide(logits, row, out=logits)
    return logits


class DomainAttention:
    """``attention_numpy`` of one fixed set of pairs, priced by its distinct rows.

    By Eq. 4-6 the attention *energy* of a (pair, feature) depends only on the
    feature index ``j`` and the vector ``h_j``, and low-cardinality or missing
    attributes give many pairs the same vector.  Built once per fit and domain:
    the :class:`~repro.features.encoder.SlotPlan` of the byte-distinct rows of
    ``features[:, j, :]`` for every ``j``.  Each call evaluates the energies of
    those ``U`` rows with the network's *current* parameters, gathers them to
    ``(N, F)`` and applies the row softmax.  Equal to the whole-set forward up
    to GEMM rounding (the product shapes differ).
    """

    def __init__(self, network: AdaMELNetwork, features: np.ndarray) -> None:
        if features.shape[1:] != (network.num_features, network.embedding_dim):
            raise ValueError(
                f"expected features of shape (N, {network.num_features}, "
                f"{network.embedding_dim}), got {features.shape}")
        self.network = network
        self.slots = SlotPlan.from_features(np.asarray(features, dtype=network.V.data.dtype))

    def __call__(self) -> np.ndarray:
        """Attention scores ``(N, F)`` with the current parameters."""
        return self.network._attend(self.slots)[1]
