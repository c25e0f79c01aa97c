"""Recurrent layers used by the token-sequence baselines.

DeepMatcher's hybrid variant summarises the word tokens of each attribute with
an attention-weighted bidirectional RNN; EntityMatcher uses bi-GRU encoders.
These layers provide the minimal GRU machinery those baselines need on top
of the :mod:`repro.nn` autograd engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .layers import Linear
from .module import Module
from .tensor import Tensor, as_tensor, stack

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """Gated recurrent unit cell."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reset_gate = Linear(input_size + hidden_size, hidden_size, rng=rng)
        self.update_gate = Linear(input_size + hidden_size, hidden_size, rng=rng)
        self.candidate = Linear(input_size + hidden_size, hidden_size, rng=rng)

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        x = as_tensor(x)
        hidden = as_tensor(hidden)
        combined = F.concatenate([x, hidden], axis=-1)
        reset = F.sigmoid(self.reset_gate(combined))
        update = F.sigmoid(self.update_gate(combined))
        candidate_input = F.concatenate([x, reset * hidden], axis=-1)
        candidate = F.tanh(self.candidate(candidate_input))
        return update * hidden + (1.0 - update) * candidate


class GRU(Module):
    """Single-layer (optionally bidirectional) GRU over a padded batch.

    Input shape ``(batch, length, input_size)``; returns the per-step hidden
    states ``(batch, length, hidden_size * num_directions)`` and the final
    hidden state ``(batch, hidden_size * num_directions)``.
    """

    def __init__(self, input_size: int, hidden_size: int, bidirectional: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.bidirectional = bidirectional
        self.forward_cell = GRUCell(input_size, hidden_size, rng=rng)
        if bidirectional:
            self.backward_cell = GRUCell(input_size, hidden_size, rng=rng)

    def _run_direction(self, cell: GRUCell, sequence: Tensor, reverse: bool) -> Tuple[Tensor, Tensor]:
        batch, length, _ = sequence.shape
        input_size = cell.input_size
        # ``Linear([x, h])`` decomposes into ``x @ Wx^T + h @ Wh^T + b``, so
        # the input-side projections of all three gates can be hoisted out of
        # the time loop as one big GEMM each.  Only the (much smaller)
        # hidden-side matmuls and the gate nonlinearities remain per token —
        # and the two per-token ``concatenate`` ops disappear entirely.
        flat = sequence.reshape(batch * length, input_size)
        gates = (cell.reset_gate, cell.update_gate, cell.candidate)
        x_parts = []
        hidden_weights = []
        for gate in gates:
            x_proj = flat @ gate.weight[:, :input_size].T + gate.bias
            x_parts.append(x_proj.reshape(batch, length, self.hidden_size))
            hidden_weights.append(gate.weight[:, input_size:].T)
        x_reset, x_update, x_candidate = x_parts
        w_reset, w_update, w_candidate = hidden_weights

        hidden = Tensor(np.zeros((batch, self.hidden_size)))
        steps: List[Tensor] = []
        time_indices = range(length - 1, -1, -1) if reverse else range(length)
        for t in time_indices:
            reset = F.sigmoid(x_reset[:, t, :] + hidden @ w_reset)
            update = F.sigmoid(x_update[:, t, :] + hidden @ w_update)
            candidate = F.tanh(x_candidate[:, t, :] + (reset * hidden) @ w_candidate)
            hidden = update * hidden + (1.0 - update) * candidate
            steps.append(hidden)
        if reverse:
            steps = list(reversed(steps))
        return stack(steps, axis=1), hidden

    def forward(self, sequence: Tensor) -> Tuple[Tensor, Tensor]:
        sequence = as_tensor(sequence)
        if sequence.ndim != 3:
            raise ValueError("GRU expects input of shape (batch, length, input_size)")
        outputs_fw, final_fw = self._run_direction(self.forward_cell, sequence, reverse=False)
        if not self.bidirectional:
            return outputs_fw, final_fw
        outputs_bw, final_bw = self._run_direction(self.backward_cell, sequence, reverse=True)
        outputs = F.concatenate([outputs_fw, outputs_bw], axis=-1)
        final = F.concatenate([final_fw, final_bw], axis=-1)
        return outputs, final
