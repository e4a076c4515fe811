import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d.autodiff import Tape, Tensor
from cpi3d.errors import ConfigError


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, x0, rtol=1e-6, atol=1e-8):
    """Compare tape adjoints against finite differences for one input."""
    x0 = np.asarray(x0, dtype=np.float64)
    param = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        loss = build(param)
    (got,) = tape.gradient(loss, [param])

    def f(arr):
        saved = param.data
        param.data = arr
        value = float(build(param).data)
        param.data = saved
        return value

    want = numeric_grad(f, x0.copy())
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def _sq(t):
    return ad.tsum(ad.mul(t, t))


@pytest.mark.parametrize("build,x0", [
    (lambda p: ad.tsum(ad.add(p, np.array([1.0, -2.0, 3.0]))), [0.5, 1.5, -0.5]),
    (lambda p: ad.tsum(ad.mul(p, np.array([2.0, -1.0, 0.5]))), [0.5, 1.5, -0.5]),
    (lambda p: ad.tsum(ad.div(p, np.array([2.0, -1.5, 0.5]))), [0.5, 1.5, -0.5]),
    (lambda p: ad.tsum(ad.div(np.array([1.0, 2.0, 3.0]), p)), [0.5, 1.5, -0.5]),
    (lambda p: ad.tsum(ad.power(p, 3.0)), [0.5, 1.5, 2.0]),
    (lambda p: ad.tsum(ad.exp(p)), [0.1, -0.2, 0.4]),
    (lambda p: ad.tsum(ad.log(p)), [0.5, 1.5, 2.5]),
    (lambda p: ad.tsum(ad.sqrt(p)), [0.5, 1.5, 2.5]),
    (lambda p: ad.tsum(ad.sin(p)), [0.3, -1.2, 2.0]),
    (lambda p: ad.tsum(ad.cos(p)), [0.3, -1.2, 2.0]),
    (lambda p: ad.tsum(ad.tanh(p)), [0.3, -1.2, 2.0]),
    (lambda p: ad.tsum(ad.sigmoid(p)), [0.3, -1.2, 2.0]),
    (lambda p: ad.tsum(ad.silu(p)), [0.3, -1.2, 2.0]),
    (lambda p: _sq(ad.tmean(p, axis=0)), [[1.0, 2.0], [3.0, 4.0]]),
    (lambda p: _sq(ad.tsum(p, axis=1)), [[1.0, 2.0], [3.0, 4.0]]),
    (lambda p: _sq(ad.reshape(p, (4,))), [[1.0, 2.0], [3.0, 4.0]]),
])
def test_primitive_gradients(build, x0):
    check_op(build, x0)


def test_matmul_gradients():
    B = np.array([[1.0, 2.0], [3.0, -1.0]])
    check_op(lambda p: _sq(ad.matmul(p, B)), [[0.5, 1.0], [2.0, -0.5]])
    A = np.array([[1.0, 0.5], [-1.0, 2.0]])
    check_op(lambda p: _sq(ad.matmul(A, p)), [[0.5, 1.0], [2.0, -0.5]])


def test_matmul_broadcast_gradients():
    # a 2-D operand broadcast over a batch of matrices gets the batch-summed adjoint
    X = np.arange(24.0).reshape(4, 3, 2) / 11.0
    check_op(lambda p: _sq(ad.matmul(p, X)), [[0.5, 1.0, -1.0], [2.0, -0.5, 0.25]])
    Y = np.arange(24.0).reshape(4, 2, 3) / 13.0
    check_op(lambda p: _sq(ad.matmul(Y, p)), [[0.5, 1.0], [2.0, -0.5], [-1.0, 0.25]])
    Z = np.arange(24.0).reshape(2, 2, 3, 2) / 17.0
    check_op(lambda p: _sq(ad.matmul(p, Z)), [[0.5, 1.0, -1.0], [2.0, -0.5, 0.25]])
    # the one-GEMM contraction of a 2-D operand agrees with the batched
    # products summed over the batch: the channel-mix shape
    # (m_out, m_in) @ (E, m_in, 2l+1), and two batch dimensions on either side
    rng = np.random.default_rng(4)
    for a_shape, b_shape in (((32, 32), (1500, 32, 5)), ((5, 3), (2, 4, 3, 6)),
                             ((2, 4, 3, 6), (6, 5))):
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        seed = rng.normal(size=(a.data @ b.data).shape)
        with Tape() as tape:
            loss = ad.tsum(ad.mul(ad.matmul(a, b), seed))
        got_a, got_b = tape.gradient(loss, [a, b])
        want_a = _batch_summed(seed @ b.data.swapaxes(-1, -2), a_shape)
        want_b = _batch_summed(a.data.swapaxes(-1, -2) @ seed, b_shape)
        for got, want in ((got_a, want_a), (got_b, want_b)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _batch_summed(full, shape):
    return full.reshape((-1,) + full.shape[-2:]).sum(axis=0) if len(shape) == 2 else full


def test_broadcast_add_gradient():
    # bias broadcast over rows must sum the adjoint over the batch
    check_op(lambda p: _sq(ad.add(np.ones((4, 3)), p)), [0.1, 0.2, 0.3])


def test_concat_and_slice_gradients():
    check_op(lambda p: _sq(ad.concat([p, ad.mul(p, 2.0)], axis=0)), [1.0, 2.0])
    check_op(lambda p: _sq(ad.take(p, (slice(None), slice(0, 1)))),
             [[1.0, 2.0], [3.0, 4.0]])


def test_gather_rows_gradient():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda p: _sq(ad.gather_rows(p, idx)), [[1.0], [2.0], [3.0]])


def test_segment_mean_forward_and_gradient():
    x = np.array([[1.0], [3.0], [5.0], [7.0]])
    seg = np.array([0, 0, 2, 2])
    out = ad.segment_mean(Tensor(x), seg, 3)
    np.testing.assert_allclose(out.data, [[2.0], [0.0], [6.0]])
    check_op(lambda p: _sq(ad.segment_mean(p, seg, 3)), x)


def test_einsum_forward_and_gradients():
    C = np.arange(12.0).reshape(3, 2, 2)
    sh = np.array([[1.0, -1.0], [0.5, 2.0]])
    check_op(lambda p: _sq(ad.einsum("Mab,eca,eb->ecM", C, p, sh)),
             np.arange(8.0).reshape(2, 2, 2) / 7.0)
    h = np.arange(8.0).reshape(2, 2, 2) / 3.0
    check_op(lambda p: _sq(ad.einsum("Mab,eca,eb->ecM", C, h, p)), sh)
    W = np.array([[1.0, 2.0], [0.5, -1.0]])
    check_op(lambda p: _sq(ad.einsum("ecM,cd->edM", h, p)), W)


def test_einsum_rejects_internal_sum():
    p = Tensor(np.ones((3, 3)), requires_grad=True)
    with Tape():
        with pytest.raises(ConfigError):
            ad.einsum("ii->", p)   # trace: index absent everywhere else


def test_tape_replays_in_reverse_order():
    calls = []
    t = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        a = ad.mul(t, 3.0)
        b = ad.add(a, 1.0)
        c = ad.tsum(b)
        for i, (out, fn) in enumerate(tape._records):
            def wrapped(g, epoch, fn=fn, i=i):
                calls.append(i)
                fn(g, epoch)
            tape._records[i] = (out, wrapped)
    tape.gradient(c, [t])
    assert calls == sorted(calls, reverse=True)


def test_tape_single_use():
    t = Tensor(np.array([1.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.mul(t, t))
    tape.gradient(y, [t])
    with pytest.raises(ConfigError):
        tape.gradient(y, [t])


def test_non_scalar_loss_rejected():
    t = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.mul(t, 2.0)
    with pytest.raises(ConfigError):
        tape.gradient(y, [t])


def test_unreached_source_gets_zero():
    used = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.mul(used, used))
    g_used, g_unused = tape.gradient(y, [used, unused])
    np.testing.assert_allclose(g_used, [2.0])
    np.testing.assert_allclose(g_unused, [0.0])


def test_no_tape_means_no_recording():
    t = Tensor(np.ones(3), requires_grad=True)
    out = ad.mul(t, 2.0)
    np.testing.assert_allclose(out.data, [2.0, 2.0, 2.0])
    assert out._epoch == -1   # never marked


def test_grad_accumulates_over_reuse():
    t = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.add(ad.mul(t, t), ad.mul(t, 5.0)))   # x^2 + 5x
    (g,) = tape.gradient(y, [t])
    np.testing.assert_allclose(g, [2.0 * 3.0 + 5.0])


def test_fresh_gradients_between_tapes():
    t = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            y = ad.tsum(ad.mul(t, t))
        (g,) = tape.gradient(y, [t])
        np.testing.assert_allclose(g, [4.0])   # no stale accumulation
