import gc
import weakref

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


def _scatter_case(name):
    """(idx, rows, n): rows summed at their index into n rows."""
    rng = np.random.default_rng(7)

    def spread(shape):    # row magnitudes 1e-8..1e8, so the order of the sums shows
        scale = 10.0 ** rng.integers(-8, 8, size=shape[:1] + (1,) * (len(shape) - 1))
        return rng.normal(size=shape) * scale

    zeros = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0]])
    return {
        "random-2d": (rng.integers(0, 9, size=300), spread((300, 4)), 9),
        "random-3d": (rng.integers(0, 9, size=300), spread((300, 3, 5)), 9),
        "ties": (np.full(200, 3), spread((200, 2, 3)), 5),
        "signed-zeros": (np.array([1, 1, 1, 2]), zeros, 3),
        "empty": (np.zeros(0, dtype=np.intp), np.zeros((0, 3)), 4),
        "untouched": (np.array([0, 0, 4]), spread((3, 2)), 6),
    }[name]


SCATTER_CASES = ("random-2d", "random-3d", "ties", "signed-zeros", "empty", "untouched")


def _add_at(idx, rows, n):
    out = np.zeros((n,) + rows.shape[1:])
    np.add.at(out, idx, rows)
    return out


@pytest.mark.parametrize("case", SCATTER_CASES)
def test_gather_rows_adjoint_equals_add_at_bit_for_bit(case):
    idx, rows, n = _scatter_case(case)
    p = Tensor(np.ones((n,) + rows.shape[1:]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.mul(ad.gather_rows(p, idx), rows))   # adjoint of the gather: rows
    (got,) = tape.gradient(y, [p])
    want = _add_at(idx, rows, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", SCATTER_CASES)
def test_segment_mean_sums_equal_add_at_bit_for_bit(case):
    idx, rows, n = _scatter_case(case)
    got = ad.segment_mean(Tensor(rows), idx, n).data
    counts = np.maximum(np.bincount(idx, minlength=n), 1.0)
    want = _add_at(idx, rows, n) / counts.reshape((-1,) + (1,) * (rows.ndim - 1))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_segment_mean_forward_and_gradient():
    x = np.array([[1.0], [3.0], [5.0], [7.0]])
    seg = np.array([0, 0, 2, 2])
    out = ad.segment_mean(Tensor(x), seg, 3)
    np.testing.assert_allclose(out.data, [[2.0], [0.0], [6.0]])
    check_op(lambda p: _sq(ad.segment_mean(p, seg, 3)), x)


def test_index_add_gradients_and_blocked_sums(rng):
    idx = np.array([2, 0, 2, 1, 2])
    base = np.arange(6.0).reshape(3, 2) / 5.0
    rows = np.linspace(-1.0, 2.0, 10).reshape(5, 2)
    check_op(lambda p: _sq(ad.index_add(p, idx, rows)), base)
    check_op(lambda p: _sq(ad.index_add(base, idx, p)), rows)
    # sums added block by block equal one np.add.at over all rows, bit for bit
    idx = rng.integers(0, 7, size=1000)
    rows = rng.normal(size=(1000, 3)) * 10.0 ** rng.integers(-8, 8, size=(1000, 1))
    want = np.zeros((7, 3))
    np.add.at(want, idx, rows)
    got = np.zeros((7, 3))
    for start in range(0, 1000, 37):
        got = ad.index_add(got, idx[start:start + 37], rows[start:start + 37]).data
    np.testing.assert_array_equal(got, want)


def _nonzero_base(rows, n):
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.integers(-8, 8, size=(n,) + (1,) * (rows.ndim - 1))
    return rng.normal(size=(n,) + rows.shape[1:]) * scale


@pytest.mark.parametrize("case", ("random-2d", "random-3d", "ties", "empty", "untouched"))
def test_index_add_equals_add_at_into_a_nonzero_base_bit_for_bit(case):
    idx, rows, n = _scatter_case(case)
    base = _nonzero_base(rows, n)
    want = base.copy()
    np.add.at(want, idx, rows)
    got = ad.index_add(base, idx, rows).data
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_index_add_turns_a_negative_zero_that_gets_only_negative_zeros_positive():
    """The sums start at +0.0, so a -0.0 base entry that receives only -0.0
    comes out +0.0, where `np.add.at` keeps -0.0; every other sign agrees."""
    base = np.array([[-0.0, -0.0], [-0.0, 1.0], [2.0, -0.0]])
    rows = np.array([[-0.0, -0.0], [-0.0, 0.0], [-0.0, -3.0]])
    got = ad.index_add(base, np.array([0, 0, 1]), rows).data
    want = base.copy()
    np.add.at(want, np.array([0, 0, 1]), rows)
    np.testing.assert_array_equal(got, want)
    assert np.signbit(want).tolist() == [[True, False], [True, True], [False, True]]
    assert np.signbit(got).tolist() == [[False, False], [False, True], [False, True]]


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
    assert not out.requires_grad   # never recorded


def test_grad_accumulates_over_reuse():
    t = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.add(ad.mul(t, t), ad.mul(t, 5.0)))   # x^2 + 5x
    (g,) = tape.gradient(y, [t])
    np.testing.assert_allclose(g, [2.0 * 3.0 + 5.0])
    # a recorded intermediate read by several ops sums their adjoints too
    with Tape() as tape:
        u = ad.mul(t, 2.0)
        y = ad.tsum(ad.add(ad.mul(u, u), ad.mul(u, 5.0)))   # u^2 + 5u, u = 2x
    (g,) = tape.gradient(y, [t])
    np.testing.assert_array_equal(g, [2.0 * (2.0 * 6.0 + 5.0)])


def test_recorded_sources_keep_their_adjoints():
    t = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        u = ad.mul(t, 2.0)
        v = ad.mul(u, u)
        y = ad.tsum(ad.add(v, ad.mul(u, 5.0)))
    g_t, g_u, g_y = tape.gradient(y, [t, u, y])
    np.testing.assert_array_equal(g_y, [1.0])
    np.testing.assert_array_equal(g_u, [2.0 * 6.0 + 5.0])
    np.testing.assert_array_equal(g_t, [2.0 * (2.0 * 6.0 + 5.0)])
    assert u.grad is g_u and y.grad is g_y
    assert v.grad is None    # freed once the sweep used it


def test_fresh_gradients_between_tapes():
    t = Tensor(np.array([2.0]), requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            y = ad.tsum(ad.mul(t, t))
        (g,) = tape.gradient(y, [t])
        np.testing.assert_allclose(g, [4.0])   # no stale accumulation


class _Probe(Tensor):
    """A Tensor that takes weak references."""


def test_adjoints_reach_only_tracked_inputs():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, -1.0]))
    with Tape() as tape:
        y = ad.tsum(ad.mul(ad.add(p, c), c))
    (g,) = tape.gradient(y, [p])
    np.testing.assert_allclose(g, [3.0, -1.0])
    assert c.grad is None


def test_tape_keeps_no_untracked_input_alive():
    p = Tensor(np.ones((3, 2)), requires_grad=True)
    c = _Probe(np.full((3, 2), 2.0))
    base = np.zeros((2, 2))
    refs = [weakref.ref(c), weakref.ref(base)]
    with Tape() as tape:
        y = ad.tsum(ad.index_add(base, np.array([0, 1, 1]), ad.mul(p, c)))
    del c, base
    gc.collect()
    assert [r() for r in refs] == [None, None]
    (g,) = tape.gradient(y, [p])
    np.testing.assert_allclose(g, np.full((3, 2), 2.0))


def test_tape_frees_outputs_that_no_rule_saves():
    """The tape holds adjoint slots, not tensors: under a live tape, a
    matmul output that feeds only an add dies with its last reference,
    while the operand that the matmul's rule saves stays alive."""
    p0 = np.arange(6.0).reshape(2, 3) / 7.0
    w = np.arange(6.0).reshape(3, 2) / 5.0
    p = Tensor(p0.copy(), requires_grad=True)
    with Tape() as tape:
        saved = Tensor(w.copy())
        m = ad.matmul(p, saved)
        y = ad.add(m, 1.0)
        refs = weakref.ref(m.data), weakref.ref(saved.data)
        del m, saved
        gc.collect()
        assert refs[0]() is None
        assert refs[1]() is not None
        loss = _sq(y)
    (g,) = tape.gradient(loss, [p])
    np.testing.assert_allclose(g, 2.0 * (p0 @ w + 1.0) @ w.T)
    check_op(lambda t: _sq(ad.add(ad.matmul(t, w), 1.0)), p0)


def _unfused_silu(a):
    return ad.mul(a, ad.sigmoid(a))


@pytest.mark.parametrize("shared", [False, True], ids=["silu-only", "also-matmul"])
def test_silu_equals_mul_of_sigmoid_bit_for_bit(shared):
    """The fused silu adds its two adjoint terms in the unfused sweep's
    order, so an input that also feeds a matmul, as the gate scalars do in
    `equinet.gated_activation`, gets the same adjoint bits."""
    rng = np.random.default_rng(12)
    x0 = 3.0 * rng.normal(size=(50, 4))
    w, seed = rng.normal(size=(4, 3)), rng.normal(size=(50, 4))

    def build(silu, t):
        loss = ad.tsum(ad.mul(silu(t), seed))
        return ad.add(loss, ad.tsum(ad.matmul(t, w))) if shared else loss

    runs = []
    for silu in (ad.silu, _unfused_silu):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            loss = build(silu, x)
        runs.append((loss.data.tobytes(), tape.gradient(loss, [x])[0].tobytes()))
    assert runs[0] == runs[1]
    check_op(lambda t: build(ad.silu, t), x0)


def test_silu_is_one_op_that_saves_only_its_input():
    x = Tensor(np.linspace(-2.0, 2.0, 6), requires_grad=True)
    with Tape() as tape:
        ad.silu(x)
    assert len(tape) == 1
    ((_, rules),) = tape._records
    assert len(rules) == 2
    assert all(len(saved) == 1 and saved[0] is x.data for _, _, *saved in rules)


def test_grad_reads_and_writes_the_slot():
    t = Tensor(np.ones(2), requires_grad=True)
    t.grad = np.array([1.0, 2.0])
    assert t._slot.grad is t.grad
    t.requires_grad = False
    assert t.grad is None
    with pytest.raises(ConfigError):
        t.grad = np.zeros(2)


def test_op_without_tracked_input_is_not_recorded():
    c = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        ad.tsum(ad.concat([ad.take(c, np.array([1, 0])), np.ones((2, 3))], axis=1))
        ad.einsum("ij,jk->ik", c, np.ones((3, 2)))
        ad.index_add(np.zeros((3, 3)), np.array([0, 2]), ad.sigmoid(c))
    assert len(tape) == 0


def _edge_mlp(x, zero, W, b, seen):
    """A one-layer edge perceptron over [x, zero] that notes whether its
    all-zero input arrived tracked (the message kernel skips an untracked
    all-zero block)."""
    seen.append(zero.requires_grad)
    h = ad.silu(ad.add(ad.matmul(ad.concat([x, zero], axis=1), W), b))
    return ad.mul(h, h)


def _edge_mlp_adjoint(calls, grads, tracked, x, zero, W, b):
    """`_edge_mlp`'s VJPs in the tape's reverse order, with its rules'
    expressions."""
    calls.append(tracked)
    (g,) = grads
    c = np.concatenate([x, zero], axis=1)
    a = c @ W + b
    s = ad._sigmoid(a)
    h = a * s
    g_h = g * h + g * h
    g_a = g_h * s + (g_h * a) * (s * (1.0 - s))
    g_c = ad._matmul_adjoint(g_a, W, 2, -2)
    return [g_c[:, :x.shape[1]], None, ad._matmul_adjoint(g_a, c, 2, -1),
            ad._unbroadcast(g_a, b.shape)]


def _two_calls(call, P, W, b, seen):
    """Two calls that share the parameters W and b, on fresh gathers of P
    (which the loss reads directly too) and an untracked all-zero input."""
    zero = Tensor(np.zeros((4, 2)))
    y1 = call(_edge_mlp, ad.gather_rows(P, np.array([0, 2, 2, 1])), zero, W, b, seen)
    y2 = call(_edge_mlp, ad.gather_rows(P, np.array([1, 1, 0, 3])), zero, W, b, seen)
    return ad.add(ad.tsum(ad.mul(ad.add(y1, y2), np.linspace(-1.0, 2.0, 12).reshape(4, 3))),
                  ad.tsum(ad.mul(P, P)))


def _checkpoint_run(call):
    rng = np.random.default_rng(3)
    P = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    W = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    seen = []
    with Tape() as tape:
        loss = _two_calls(call, P, W, b, seen)
    grads = tape.gradient(loss, [P, W, b])
    return loss.data.tobytes(), [g.tobytes() for g in grads], seen


def test_checkpoint_equals_the_unwrapped_ops_bit_for_bit():
    """`custom_adjoint` with a written-out adjoint gives the values and
    adjoints of the same ops on the tape, bit for bit; backward calls the
    adjoint once per call and never `fn`."""
    calls = []

    def plain(fn, *inputs):
        return fn(*inputs)

    def checkpointed(fn, *inputs):
        (y,) = ad.custom_adjoint(lambda *xs, seen=inputs[-1]: (fn(*xs, seen),),
                                 lambda *args: _edge_mlp_adjoint(calls, *args), *inputs[:-1])
        return y

    loss, grads, seen = _checkpoint_run(plain)
    loss_ck, grads_ck, seen_ck = _checkpoint_run(checkpointed)
    assert loss_ck == loss and grads_ck == grads
    # two forward calls and no backward call of fn: the zero input stays off the tape
    assert seen == [False] * 2 and seen_ck == [False] * 2
    assert calls == [[True, False, True, True]] * 2


def _sigmoid_of_xy_plus_x(x, y):
    return (ad.sigmoid(ad.add(ad.matmul(x, y), x)),)


def _sigmoid_of_xy_plus_x_adjoint(grads, tracked, x, y):
    (g,) = grads
    s = ad._sigmoid(x @ y + x)
    g_z = g * (s * (1.0 - s))
    return [ad._matmul_adjoint(g_z, y, 2, -2) + g_z, ad._matmul_adjoint(g_z, x, 2, -1)]


def test_checkpoint_is_one_record_and_no_record_without_a_tape():
    p = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    fn, adjoint = _sigmoid_of_xy_plus_x, _sigmoid_of_xy_plus_x_adjoint
    with Tape() as tape:
        (out,) = ad.custom_adjoint(fn, adjoint, p, np.eye(2))
    assert len(tape) == 1 + 1 and out.requires_grad     # the inputs' rules, then the output's
    (plain,) = ad.custom_adjoint(fn, adjoint, p, np.eye(2))
    assert not plain.requires_grad and plain.data.tobytes() == out.data.tobytes()
    check_op(lambda t: _sq(ad.custom_adjoint(fn, adjoint, t, np.eye(2))[0]), p.data)


def test_checkpoint_replays_when_the_gradient_runs_inside_the_tape_block():
    """The adjoint runs plain numpy, so a gradient taken inside the tape
    block records nothing more."""
    p = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        (y,) = ad.custom_adjoint(lambda x: (ad.mul(ad.exp(x), x),),
                                 lambda grads, tracked, x: [grads[0] * (np.exp(x) * (1.0 + x))],
                                 p)
        loss = ad.tsum(y)
        records = len(tape)
        (g,) = tape.gradient(loss, [p])
        assert len(tape) == records
    np.testing.assert_allclose(g, np.exp(p.data) * (1.0 + p.data))
    with pytest.raises(ConfigError, match="tapes do not nest"):
        with Tape():
            with Tape():
                pass


def test_custom_adjoint_copies_an_adjoint_the_sweep_already_holds():
    """An adjoint that returns one array for two inputs, or an input's own
    array, hands each slot its own copy: the later `+=` of the product's
    rules reaches no other slot and no input."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    v = Tensor(np.array([2.0, 3.0]), requires_grad=True)

    def adjoint(grads, tracked, a, b, c):
        shared = grads[0] * 1.0
        return [shared, shared, c]      # c equals the adjoint [2, 3] here

    with Tape() as tape:
        z = ad.mul(ad.mul(x, w), v)
        (y,) = ad.custom_adjoint(lambda a, b, c: (ad.add(ad.add(a, b), c),), adjoint, x, w, v)
        loss = ad.add(ad.tsum(ad.mul(y, np.array([2.0, 3.0]))), ad.tsum(z))
    gx, gw, gv = tape.gradient(loss, [x, w, v])
    np.testing.assert_array_equal(gx, [2.0 + 6.0, 3.0 + 15.0])
    np.testing.assert_array_equal(gw, [2.0 + 2.0, 3.0 + 6.0])
    np.testing.assert_array_equal(gv, [2.0 + 3.0, 3.0 + 10.0])
    np.testing.assert_array_equal(v.data, [2.0, 3.0])


def test_one_adjoint_reaching_two_slots_is_copied_for_each():
    """Both inputs of one `add` get its output's adjoint; each slot takes
    its own copy, so a later `+=` into x's slot leaves w's unchanged."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 4.0]), requires_grad=True)
    with Tape() as tape:
        u = ad.mul(x, 3.0)
        y = ad.add(x, w)
        loss = ad.add(ad.tsum(ad.mul(y, np.array([2.0, -1.0]))), ad.tsum(u))
    gx, gw = tape.gradient(loss, [x, w])
    np.testing.assert_array_equal(gx, [5.0, 2.0])
    np.testing.assert_array_equal(gw, [2.0, -1.0])


def _tuple_run(call):
    rng = np.random.default_rng(4)
    P = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)

    def fn(p, c):
        h = ad.sigmoid(ad.add(p, c))     # each input used once
        return ad.mul(h, h), ad.exp(h), ad.tsum(h)

    with Tape() as tape:
        first, second, unused = call(fn, P, b)
        loss = ad.add(ad.tsum(ad.mul(first, second)), ad.tsum(ad.mul(P, first)))
    records = len(tape)
    grads = tape.gradient(loss, [P, b])
    return loss.data.tobytes(), [g.tobytes() for g in grads], records, unused


def _tuple_adjoint(grads, tracked, p, c):
    """`_tuple_run`'s fn in reverse: the exp output's rule, then the
    square's two, as the tape sweeps them; the unread sum sends none."""
    g_first, g_second, g_unused = grads
    assert g_unused is None
    h = ad._sigmoid(p + c)
    g_h = g_second * np.exp(h)
    g_h += g_first * h
    g_h += g_first * h
    g_x = g_h * (h * (1.0 - h))
    return [g_x, ad._unbroadcast(g_x, c.shape)]


def test_checkpoint_of_a_tuple_equals_the_unwrapped_ops_bit_for_bit():
    """A tuple-valued `fn` gives a tuple of tensors, one record for the
    inputs' rules plus one per output; values and adjoints are the
    unwrapped ops' bit for bit, and an output nobody reads sends none."""
    loss, grads, _, unused = _tuple_run(lambda fn, *xs: fn(*xs))
    loss_ck, grads_ck, records, unused_ck = _tuple_run(
        lambda fn, *xs: ad.custom_adjoint(fn, _tuple_adjoint, *xs))
    assert loss_ck == loss and grads_ck == grads
    assert unused_ck.data.tobytes() == unused.data.tobytes()
    assert records == 1 + 3 + 5     # the custom op's, then the loss ops
