"""Configuration of the AdaMEL model and its training loop.

Default hyperparameters follow Section 5.1 of the paper (per-feature latent
dimension ``H=64``, attention hidden dimension ``H'=256``, classifier hidden
dimension ``256``, Adam, batch size 16, λ=0.98, φ=1.0), but are scaled down by
default so the CPU-only experiments complete in seconds; every experiment can
pass a custom config to restore the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from ..utils.validation import require_fraction, require_positive

__all__ = ["AdaMELConfig"]


@dataclass(frozen=True)
class AdaMELConfig:
    """Hyperparameters of AdaMEL and its trainer.

    Training records each mini-batch size's step once and replays it
    (:class:`repro.nn.graph.StepGraphs`, bit-exact with eager in float64;
    see ``docs/autograd.md``).

    Attributes
    ----------
    embedding_dim:
        Dimension ``D`` of the fixed token embeddings (paper: 300 FastText).
    hidden_dim:
        Dimension ``H`` of the per-feature latent vectors ``x_j`` (paper: 64).
    attention_dim:
        Hidden dimension ``H'`` of the attention embedding function ``f``
        (paper: 256).
    classifier_hidden_dim:
        Hidden dimension of the 2-layer MLP classifier Θ (paper: 256).
    learning_rate, epochs, batch_size:
        Optimisation settings (paper: Adam, 1e-4, 100 epochs, batch 16).
    adaptation_weight:
        λ in Eq. (9)/(14) — weight of the unsupervised domain-adaptation loss.
    support_weight:
        φ in Eq. (13)/(14) — weight of the support-set loss.
    feature_kinds:
        Which contrastive relational features to use (Table 6 ablation).
    crop_size:
        Maximum tokens per attribute value (paper: 20).
    grad_clip:
        Global gradient-norm clip (0 disables clipping).
    dropout:
        Dropout rate of the classifier's hidden layer during training.
    seed:
        Seed controlling weight init and batch shuffling.
    dtype:
        Compute dtype for training: ``"float64"`` (default, exact) or
        ``"float32"`` (≈2× less memory bandwidth, small accuracy drift).
    profile_steps:
        Record per-step wall-clock into ``TrainingHistory.step_seconds``
        (read by the traced half of the ``train_adapt`` workload).
    """

    embedding_dim: int = 48
    hidden_dim: int = 32
    attention_dim: int = 64
    classifier_hidden_dim: int = 64
    learning_rate: float = 5e-3
    epochs: int = 30
    batch_size: int = 16
    adaptation_weight: float = 0.98
    support_weight: float = 1.0
    feature_kinds: Tuple[str, ...] = ("shared", "unique")
    crop_size: int = 20
    grad_clip: float = 5.0
    dropout: float = 0.0
    seed: int = 0
    verbose: bool = False
    dtype: str = "float64"
    profile_steps: bool = False

    def __post_init__(self) -> None:
        require_positive(self.embedding_dim, "embedding_dim")
        require_positive(self.hidden_dim, "hidden_dim")
        require_positive(self.attention_dim, "attention_dim")
        require_positive(self.classifier_hidden_dim, "classifier_hidden_dim")
        require_positive(self.learning_rate, "learning_rate")
        require_positive(self.epochs, "epochs")
        require_positive(self.batch_size, "batch_size")
        require_positive(self.crop_size, "crop_size")
        require_fraction(self.adaptation_weight, "adaptation_weight")
        if self.support_weight < 0:
            raise ValueError(f"support_weight must be >= 0, got {self.support_weight}")
        if not self.feature_kinds:
            raise ValueError("feature_kinds must not be empty")
        invalid = [k for k in self.feature_kinds if k not in ("shared", "unique")]
        if invalid:
            raise ValueError(f"invalid feature kinds: {invalid}")
        if self.dropout < 0 or self.dropout >= 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    def with_updates(self, **changes: object) -> "AdaMELConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def paper_scale(cls) -> "AdaMELConfig":
        """The configuration reported in the paper (slower; for full runs)."""
        return cls(embedding_dim=300, hidden_dim=64, attention_dim=256,
                   classifier_hidden_dim=256, learning_rate=1e-4, epochs=100,
                   batch_size=16)
