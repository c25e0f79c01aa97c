"""Numpy-based neural-network substrate (autograd, layers, optimisers).

This package replaces PyTorch for the AdaMEL reproduction: it provides the
minimal tensor/autograd engine, layers, attention mechanisms, recurrent cells,
losses and optimisers that the AdaMEL model and its deep baselines require.
"""

from . import functional
from .attention import AdditiveAttention, ScaledDotProductAttention, SelfAttentionEncoder
from .dtypes import DtypePolicy, get_default_dtype, using_dtype
from .fused import (
    fused_attention_softmax,
    fused_binary_cross_entropy,
    fused_feature_affine_relu,
    fused_kl_divergence,
    fused_linear,
    fused_scale_relu_flatten,
)
from .gradcheck import check_gradient, numerical_gradient
from .graph import CompiledGraph, GraphShapeMismatch, StepGraphs, Tape
from .layers import MLP, Dropout, Linear, ReLU, Sequential
from .losses import binary_cross_entropy, kl_divergence
from .module import Module, Parameter
from .optim import Adam, clip_grad_norm
from .recurrent import GRU, GRUCell
from .tensor import (Tensor, as_tensor, concatenate, is_grad_enabled, no_grad,
                     recomputed_leaf, stack)

__all__ = [
    "functional",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "recomputed_leaf",
    "Tape",
    "CompiledGraph",
    "GraphShapeMismatch",
    "StepGraphs",
    "DtypePolicy",
    "get_default_dtype",
    "using_dtype",
    "fused_feature_affine_relu",
    "fused_linear",
    "fused_scale_relu_flatten",
    "fused_binary_cross_entropy",
    "fused_attention_softmax",
    "fused_kl_divergence",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "ReLU",
    "Dropout",
    "AdditiveAttention",
    "ScaledDotProductAttention",
    "SelfAttentionEncoder",
    "GRUCell",
    "GRU",
    "binary_cross_entropy",
    "kl_divergence",
    "Adam",
    "clip_grad_norm",
    "check_gradient",
    "numerical_gradient",
]
