"""Inference subsystem: model persistence and batched serving.

Trained AdaMEL models are saved as bundle directories (config + schema +
weights) and served through :class:`BatchedPredictor`, which micro-batches
prediction requests into fused ``no_grad`` forward passes.
"""

from .predictor import BatchedPredictor
from .serialization import MODEL_FORMAT_VERSION, load_model, save_model

__all__ = [
    "BatchedPredictor",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]
