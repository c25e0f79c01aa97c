"""Every fused kernel against the composition it replaces, plus the kernels'
own contracts (argument checks, scratch reuse, broadcasting).

``test_kernel_equals_its_composition`` walks ``repro.nn.fused.__all__``: a
kernel added there without an entry in ``composed_oracle.ORACLES`` fails it.
"""

import numpy as np
import pytest

from composed_oracle import ORACLES, Oracle
from repro.nn import fused
from repro.nn.dtypes import using_dtype
from repro.nn.fused import fused_attention_softmax, fused_kl_divergence, fused_linear
from repro.nn.gradcheck import check_gradient, numerical_gradient
from repro.nn.graph import CompiledGraph, Tape
from repro.nn.losses import kl_divergence
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

REPLAYS = 3


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------- #
# The generated check
# ---------------------------------------------------------------------- #
def _strided(value: np.ndarray) -> np.ndarray:
    """Same shape and values, not C-contiguous."""
    if value.ndim >= 2:
        return np.ascontiguousarray(value.T).T
    return np.repeat(value, 2)[::2] if value.ndim else value


def _tensors(oracle: Oracle, arrays, dtype=np.float64, frozen=None, strided=False):
    tensors = {}
    for name, value in arrays.items():
        if value.dtype.kind == "i":
            tensors[name] = value.copy()
            continue
        value = value.astype(dtype)
        tensors[name] = Tensor(_strided(value) if strided else value,
                               requires_grad=name in oracle.differentiable and name != frozen)
    return tensors


def _objective(out: Tensor, projection: np.ndarray) -> Tensor:
    """A scalar whose gradient reaches every output element differently."""
    return out if out.ndim == 0 else (out * Tensor(projection.astype(out.dtype))).sum()


def _gradients(oracle: Oracle, tensors, loss: Tensor):
    if not loss.requires_grad:
        return {}
    return {name: tensors[name].grad.copy() for name in oracle.differentiable
            if tensors[name].requires_grad}


def _eager(fn, oracle: Oracle, arrays, projection, **how):
    tensors = _tensors(oracle, arrays, **how)
    out = fn(**tensors)
    loss = _objective(out, projection)
    if loss.requires_grad:
        loss.backward()
    return out.data.copy(), _gradients(oracle, tensors, loss)


def _assert_same(got, expected, oracle: Oracle, where: str) -> None:
    (out, grads), (ref_out, ref_grads) = got, expected
    assert np.array_equal(out, ref_out), f"{where}: forward differs"
    assert grads.keys() == ref_grads.keys(), where
    for name, grad in grads.items():
        if oracle.exact_gradients:
            assert np.array_equal(grad, ref_grads[name]), f"{where}: d/d{name} differs"
        else:
            assert np.allclose(grad, ref_grads[name], rtol=1e-10, atol=1e-13), \
                f"{where}: d/d{name} differs"


def _check_replays(oracle: Oracle, arrays, projection, rng, where: str, **how) -> None:
    """Capture once, then replay on permuted operand values."""
    tape = Tape()
    with tape:
        tensors = _tensors(oracle, arrays, **how)
        out = oracle.fused(**tensors)
        loss = _objective(out, projection)
    graph = CompiledGraph(tape, inputs={}, loss=loss if loss.requires_grad else None)
    for replay in range(REPLAYS):
        arrays = {name: rng.permutation(value.ravel()).reshape(value.shape)
                  for name, value in arrays.items()}
        for name, value in arrays.items():
            held = tensors[name]
            np.copyto(held.data if isinstance(held, Tensor) else held, value)
        if loss.requires_grad:
            graph.step()
        else:
            graph.forward()
        _assert_same((out.data, _gradients(oracle, tensors, loss)),
                     _eager(oracle.composed, oracle, arrays, projection, **how),
                     oracle, f"{where}, replay {replay}")


def _check_gradients_by_finite_differences(oracle: Oracle, arrays, projection) -> None:
    tensors = _tensors(oracle, arrays)
    wanted = [tensors[name] for name in oracle.differentiable]

    def loss() -> Tensor:
        return _objective(oracle.fused(**tensors), projection)

    check_gradient(loss, wanted)
    # float32: the kernel must stay in float32 end to end, and its analytic
    # gradient must match the differences of the float64 function at the same
    # (float32-representable) point — float32 differences would be noise.
    rounded = {name: value if value.dtype.kind == "i" else
               value.astype(np.float32).astype(np.float64) for name, value in arrays.items()}
    with using_dtype("float32"):
        single = _tensors(oracle, rounded, dtype=np.float32)
        out = oracle.fused(**single)
        assert out.dtype == np.float32
        _objective(out, projection).backward()
    tensors = _tensors(oracle, rounded)
    for name in oracle.differentiable:
        assert single[name].grad.dtype == np.float32
        assert np.allclose(single[name].grad, numerical_gradient(loss, tensors[name]),
                           rtol=2e-3, atol=2e-4), f"{oracle.label}: float32 d/d{name}"


@pytest.mark.parametrize("name", fused.__all__)
def test_kernel_equals_its_composition(name):
    """float64 forward and every gradient equal the composition — eager and
    replayed, for batch sizes down to 1, strided operands and operands that
    do not require grad — and the gradients pass finite differences."""
    for oracle in ORACLES[name]:
        rng = np.random.default_rng(len(name) + len(oracle.label))
        for n in (1, 2, 7, 16, 31):
            arrays = oracle.operands(rng, n, True)
            projection = rng.normal(size=oracle.composed(**_tensors(oracle, arrays)).shape)
            for how in ({}, {"strided": True},
                        *({"frozen": frozen} for frozen in oracle.differentiable)):
                where = f"{name}[{oracle.label}] n={n} {how}"
                _assert_same(_eager(oracle.fused, oracle, arrays, projection, **how),
                             _eager(oracle.composed, oracle, arrays, projection, **how),
                             oracle, where)
                _check_replays(oracle, arrays, projection, rng, where, **how)
        arrays = oracle.operands(rng, 3, False)
        projection = rng.normal(size=oracle.composed(**_tensors(oracle, arrays)).shape)
        _check_gradients_by_finite_differences(oracle, arrays, projection)


# ---------------------------------------------------------------------- #
# Per-kernel contracts
# ---------------------------------------------------------------------- #
class TestFusedLinearSigmoid:
    def test_matches_composed(self, rng):
        x = Tensor(rng.normal(size=(6, 5)))
        w = Parameter(rng.normal(size=(3, 5)) * 0.3)
        b = Parameter(rng.normal(size=3) * 0.3)
        assert np.array_equal(fused_linear(x, w, b).data,
                              1.0 / (1.0 + np.exp(-(x.data @ w.data.T + b.data))))
        assert np.array_equal(fused_linear(x, w, b, activation="relu").data,
                              np.maximum(x.data @ w.data.T + b.data, 0.0))

    def test_gradcheck_without_bias(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Parameter(rng.normal(size=(1, 3)) * 0.3)
        check_gradient(lambda: fused_linear(x, w).sum(), [x, w])

    def test_repeated_builds_are_deterministic(self, rng):
        """Scratch buffers must be fully overwritten before use.

        Rebuilding the identical graph twice would surface any read of
        uninitialised ``np.empty`` scratch memory as run-to-run divergence.
        """
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Parameter(rng.normal(size=(2, 5)) * 0.3)
        b = Parameter(rng.normal(size=2) * 0.3)
        grads = []
        for _ in range(2):
            for t in (x, w, b):
                t.zero_grad()
            fused_linear(x, w, b).sum().backward()
            grads.append([t.grad.copy() for t in (x, w, b)])
        for a, b_ in zip(*grads):
            assert np.array_equal(a, b_)

    def test_rejects_unknown_activation_and_vector_input(self, rng):
        w = Parameter(rng.normal(size=(2, 5)))
        with pytest.raises(ValueError):
            fused_linear(Tensor(rng.normal(size=(4, 5))), w, activation="tanh")
        with pytest.raises(ValueError):
            fused_linear(Tensor(rng.normal(size=5)), w)


class TestFusedAttentionSoftmax:
    def test_matches_composed(self, rng):
        x = Tensor(rng.normal(size=(5, 3, 6)))
        w = Parameter(rng.normal(size=(4, 6)) * 0.3)
        a = Parameter(rng.normal(size=4) * 0.3)
        out = fused_attention_softmax(x, w, a)
        energies = np.tanh(x.data @ w.data.T) @ a.data
        expected = np.exp(energies) / np.exp(energies).sum(axis=-1, keepdims=True)
        assert np.allclose(out.data, expected, atol=1e-12)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_gradcheck_non_contiguous_input(self, rng):
        """A transposed view of a tensor that requires grad feeds the kernel."""
        base = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        w = Parameter(rng.normal(size=(6, 5)) * 0.3)
        a = Parameter(rng.normal(size=6) * 0.3)

        def loss():
            x = base.transpose(1, 2, 0)  # (3, 4, 5), non-contiguous
            return (fused_attention_softmax(x, w, a) ** 2).sum()

        check_gradient(loss, [base, w, a])

    def test_two_dimensional_input(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = Parameter(rng.normal(size=(6, 5)) * 0.3)
        a = Parameter(rng.normal(size=6) * 0.3)
        out = fused_attention_softmax(x, w, a)
        assert out.shape == (4,)
        check_gradient(lambda: (fused_attention_softmax(x, w, a) ** 2).sum(),
                       [x, w, a])


class TestFusedKLDivergence:
    def test_matches_public_api(self, rng):
        # kl_divergence routes through the fused op; compare against the
        # explicit clipped composition.
        p = Tensor(np.full(4, 0.25))
        q = Tensor(rng.dirichlet(np.ones(4), size=6))
        fused_loss = kl_divergence(p, q)
        p_safe = np.clip(p.data, 1e-9, 1.0)
        q_safe = np.clip(q.data, 1e-9, 1.0)
        expected = (p_safe * (np.log(p_safe) - np.log(q_safe))).sum(axis=-1).mean()
        assert np.isclose(float(fused_loss.data), expected, atol=1e-12)

    def test_zero_when_identical(self):
        p = Tensor(np.full((3, 4), 0.25))
        assert float(fused_kl_divergence(Tensor(np.full(4, 0.25)), p).data) == \
            pytest.approx(0.0, abs=1e-12)

    def test_gradcheck_p_and_q(self, rng):
        p = Tensor(rng.dirichlet(np.ones(4)), requires_grad=True)
        q = Tensor(rng.dirichlet(np.ones(4), size=3), requires_grad=True)
        check_gradient(lambda: fused_kl_divergence(p, q), [p, q])

    def test_broadcast_gradient_sums_over_batch(self, rng):
        p = Tensor(rng.dirichlet(np.ones(4)), requires_grad=True)
        q = Tensor(rng.dirichlet(np.ones(4), size=5), requires_grad=True)
        fused_kl_divergence(p, q).backward()
        assert p.grad.shape == (4,)
        assert q.grad.shape == (5, 4)


class TestStageKernelArguments:
    def test_shape_mismatches_are_rejected(self, rng):
        with pytest.raises(ValueError):
            fused.fused_feature_affine_relu(Tensor(rng.normal(size=(4, 3, 5))),
                                            Tensor(rng.normal(size=(2, 5, 6))),
                                            Tensor(rng.normal(size=(2, 6))))
        with pytest.raises(ValueError):
            fused.fused_scale_relu_flatten(Tensor(rng.normal(size=(4, 2))),
                                           Tensor(rng.normal(size=(4, 3, 5))))
        with pytest.raises(ValueError):
            fused.fused_binary_cross_entropy(Tensor(rng.random(4)), Tensor(rng.random(3)))
