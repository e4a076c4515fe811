"""Minimal reverse-mode automatic differentiation over numpy arrays.

Operations executed inside a `with Tape() as tape:` block are recorded in
order; `tape.gradient(loss, sources)` seeds the scalar loss with adjoint 1
and replays the recorded adjoint functions in exact reverse order. Outside
a tape, the same ops run as plain numpy with no recording overhead. All
arithmetic is float64. `custom_adjoint(fn, adjoint, *inputs)` records a
whole function as one op that saves only its inputs; its backward is one
call of a written-out `adjoint` in plain numpy, which recomputes what it
needs from those inputs, with no tape and no rerun of `fn`.

Every primitive records by one rule: it hands `_op` its value and, only
under a tape, one rule `(input, adjoint, *saved)` per input; the input's
adjoint is `adjoint(g, *saved)`, summed over the axes the op broadcast.
Only tracked inputs keep their rule: tensors with `requires_grad`, which
every recorded output gets. A tracked tensor's adjoint lives in its
`_Slot`, and the tape's records and rules hold slots, not tensors. So the
tape keeps alive only the arrays that some rule saves: an op output that
no rule saves is freed as soon as user code drops it, under a tape too.
A slot takes over an adjoint that its rule built, and copies one that is
shared (`_accumulate`).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ConfigError

_ACTIVE: list["Tape"] = []
_EPOCH = [0]


class Tape:
    """Ordered record of primitive operations for adjoint replay."""

    def __init__(self):
        self._records: list[tuple[_Slot, _Rules]] = []
        self._consumed = False

    def __enter__(self):
        if _ACTIVE:
            raise ConfigError("tapes do not nest")
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def __len__(self):
        return len(self._records)

    def gradient(self, loss: "Tensor", sources) -> list[np.ndarray]:
        """Adjoints of `loss` with respect to each source tensor.

        Sources never reached by the recorded computation get zero
        gradients. A recorded output's adjoint is freed once its rules
        have run, unless the output is a source, so the sweep holds the
        operands the rules saved plus the adjoints still to be used. The
        tape is single-use.
        """
        if self._consumed:
            raise ConfigError("tape already replayed")
        self._consumed = True
        if loss.data.size != 1:
            raise ConfigError(f"loss must be scalar, got shape {loss.data.shape}")
        sources = list(sources)
        keep = {s._slot for s in sources}
        _EPOCH[0] += 1
        epoch = _EPOCH[0]
        _accumulate(loss._slot or _Slot(loss.shape), np.ones_like(loss.data), epoch, True)
        for slot, backward in reversed(self._records):
            if slot.epoch == epoch:
                backward(slot.grad, epoch)
                if slot not in keep:
                    slot.grad = None
        return [s._slot.grad if s._slot is not None and s._slot.epoch == epoch
                else np.zeros_like(s.data) for s in sources]


class _Slot:
    """The adjoint of one tracked tensor: what the reverse sweep reads and
    writes, without the tensor's value."""

    __slots__ = ("grad", "epoch", "shape")

    def __init__(self, shape: tuple):
        self.grad: np.ndarray | None = None
        self.epoch = -1
        self.shape = shape


def _accumulate(slot: _Slot, g, epoch: int, built: bool):
    """Add `g` to the slot's adjoint. The first adjoint of a sweep becomes
    the slot's own: `g` itself when the rule `built` it (it is not the
    rule's incoming adjoint) and it is a writeable float64 array that owns
    its data, else a copy, so that a later `+=` cannot reach an array that
    another slot, a saved operand or a view's base shares."""
    if slot.epoch != epoch:
        slot.epoch = epoch
        if not (built and isinstance(g, np.ndarray) and g.dtype == np.float64
                and g.flags.owndata and g.flags.writeable):
            g = np.array(g, dtype=np.float64, copy=True)
        slot.grad = g
    else:
        slot.grad += g


class Tensor:
    """A float64 numpy array plus, once tracked, an adjoint slot."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._slot = _Slot(self.data.shape) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._slot is not None

    @requires_grad.setter
    def requires_grad(self, tracked: bool):
        if not tracked:
            self._slot = None
        elif self._slot is None:
            self._slot = _Slot(self.data.shape)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot.grad

    @grad.setter
    def grad(self, g):
        if self._slot is None:
            raise ConfigError("an untracked tensor has no adjoint")
        self._slot.grad = g

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


class _Rules(list):
    """The rules of one recorded op's tracked inputs: its backward function."""

    __slots__ = ()

    def __call__(self, g, epoch):
        for slot, adjoint, *saved in self:
            a = _unbroadcast(adjoint(g, *saved), slot.shape)
            _accumulate(slot, a, epoch, a is not g)


def _op(value, rules) -> Tensor:
    """`value` as a Tensor, recorded on the active tape with the `rules` of
    its tracked inputs; ops pass rules only under a tape. The record and
    its rules hold the slots of `value` and of those inputs, not the
    tensors, so neither array stays alive unless a rule saved it."""
    out = Tensor(value)
    if rules:
        live = _Rules()
        for x, *rest in rules:
            if isinstance(x, Tensor) and x._slot is not None:
                live.append((x._slot, *rest))
        if live:
            out._slot = _Slot(out.data.shape)
            _ACTIVE[0]._records.append((out._slot, live))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _unchanged(g):
    return g


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad + bd, ((a, _unchanged), (b, _unchanged)) if _ACTIVE else ())


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad * bd, ((a, np.multiply, bd), (b, np.multiply, ad)) if _ACTIVE else ())


def _divisor_adjoint(g, a, b):
    return -g * a / (b * b)


def div(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad / bd, ((a, np.divide, bd), (b, _divisor_adjoint, ad, bd)) if _ACTIVE else ())


def _rows_by_batch(x: np.ndarray, batch: tuple, axis: int) -> np.ndarray:
    """`x` broadcast over the batch shape, as a 2-D array whose rows are
    its `axis` (-2 or -1) and whose columns run over everything else."""
    x = np.moveaxis(np.broadcast_to(x, batch + x.shape[-2:]), axis, 0)
    return x.reshape(x.shape[0], -1)


def _matmul_adjoint(g, other, ndim, axis):
    """Adjoint of the left (`axis` -2) or right (-1) operand, of `ndim`
    dimensions, of a product with `other`."""
    batch = g.shape[:-2]
    if ndim == 2 and batch:
        rows_g, rows_other = _rows_by_batch(g, batch, axis), _rows_by_batch(other, batch, axis)
        return rows_g @ rows_other.T if axis == -2 else rows_other @ rows_g.T
    return g @ other.swapaxes(-1, -2) if axis == -2 else other.swapaxes(-1, -2) @ g


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching; an operand broadcast over batch
    dimensions gets its adjoint summed over them. A 2-D operand of a
    batched product gets that sum as one 2-D product over the batch."""
    ad, bd = _data(a), _data(b)
    return _op(ad @ bd, ((a, _matmul_adjoint, bd, ad.ndim, -2),
                         (b, _matmul_adjoint, ad, bd.ndim, -1)) if _ACTIVE else ())


def _unary(a, fn, adjoint) -> Tensor:
    """`fn` of `a`, whose adjoint is `adjoint(g, x, y)` at input x and output y."""
    ad = _data(a)
    y = fn(ad)
    return _op(y, ((a, adjoint, ad, y),) if _ACTIVE else ())


def power(a, p: float) -> Tensor:
    return _unary(a, lambda x: x ** p, lambda g, x, y: g * p * x ** (p - 1.0))


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y)


def log(a) -> Tensor:
    return _unary(a, np.log, lambda g, x, y: g * (1.0 / x))


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, y: g * (0.5 / y))


def sin(a) -> Tensor:
    return _unary(a, np.sin, lambda g, x, y: g * np.cos(x))


def cos(a) -> Tensor:
    return _unary(a, np.cos, lambda g, x, y: g * -np.sin(x))


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    return _unary(a, _sigmoid, lambda g, x, y: g * (y * (1.0 - y)))


def _silu_direct_adjoint(g, x):
    return g * _sigmoid(x)


def _silu_gate_adjoint(g, x):
    s = _sigmoid(x)
    return (g * x) * (s * (1.0 - s))


def silu(a) -> Tensor:
    """x * sigmoid(x) as one op whose rules save only x and recompute the
    sigmoid. Its adjoint reaches x as two terms, g * s and then
    (g * x) * (s * (1 - s)), the order in which the product's and the
    sigmoid's rules added them, so an x that feeds other ops too sums its
    adjoint in the same order as `mul(a, sigmoid(a))`, bit for bit."""
    ad = _data(a)
    return _op(ad * _sigmoid(ad), ((a, _silu_direct_adjoint, ad),
                                   (a, _silu_gate_adjoint, ad)) if _ACTIVE else ())


def _sum_adjoint(g, axis, keepdims, shape):
    return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    ad = _data(a)
    return _op(ad.sum(axis=axis, keepdims=keepdims),
               ((a, _sum_adjoint, axis, keepdims, ad.shape),) if _ACTIVE else ())


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    ad = _data(a)
    if axis is None:
        scale = ad.size
    elif isinstance(axis, tuple):
        scale = int(np.prod([ad.shape[i] for i in axis]))
    else:
        scale = ad.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / scale)


def reshape(a, shape) -> Tensor:
    ad = _data(a)
    return _op(ad.reshape(shape), ((a, np.reshape, ad.shape),) if _ACTIVE else ())


def _part_adjoint(g, axis, start, stop):
    return g.swapaxes(0, axis)[start:stop].swapaxes(0, axis)


def concat(parts, axis: int = 0) -> Tensor:
    datas = [_data(p) for p in parts]
    rules, stop = [], 0
    if _ACTIVE:
        for p, d in zip(parts, datas):
            stop += d.shape[axis]
            rules.append((p, _part_adjoint, axis, stop - d.shape[axis], stop))
    return _op(np.concatenate(datas, axis=axis), rules)


def _scatter_adjoint(g, key, shape):
    buf = np.zeros(shape)
    np.add.at(buf, key, g)
    return buf


def take(a, key) -> Tensor:
    """Basic and integer-array indexing with scatter-add adjoint."""
    ad = _data(a)
    return _op(ad[key], ((a, _scatter_adjoint, key, ad.shape),) if _ACTIVE else ())


def _scatter_rows(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """`n` rows of zeros plus each of `rows` at its index in `idx`, by one
    `np.bincount` over the flat cells `idx * k + column`. Each cell adds
    its terms in array order from +0.0, so the result equals `np.add.at`
    into `np.zeros` bit for bit, signed zeros included. The cast is for
    an empty `idx`, whose `bincount` is integer."""
    k = math.prod(rows.shape[idx.ndim:])
    flat = (idx.astype(np.intp, copy=False).reshape(-1, 1) * k + np.arange(k)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=n * k)
    return sums.astype(np.float64, copy=False).reshape((n,) + rows.shape[idx.ndim:])


def gather_rows(a, idx: np.ndarray) -> Tensor:
    """Rows `a[idx]`; the adjoint sums each row's terms by `np.bincount`,
    in array order."""
    ad, idx = _data(a), np.asarray(idx)
    return _op(ad[idx], ((a, _scatter_rows, idx, ad.shape[0]),) if _ACTIVE else ())


def index_add(base, idx: np.ndarray, rows) -> Tensor:
    """`base` plus each row of `rows` at its index in `idx`. The touched
    base rows are summed by one `np.bincount` over compact ids (`np.unique`
    of `idx`), each base row first and then its rows in array order, so
    the result equals `np.add.at` on a copy bit for bit and blockwise sums
    equal one call; except that a -0.0 base entry that receives only -0.0
    comes out +0.0, as `bincount` starts each sum at +0.0."""
    bd, rd, idx = _data(base), _data(rows), np.asarray(idx)
    touched, compact = np.unique(idx, return_inverse=True)
    ids = np.concatenate([np.arange(len(touched)), compact.ravel()])
    out = bd.copy()
    out[touched] = _scatter_rows(np.concatenate([bd[touched], rd]), ids, len(touched))
    return _op(out, ((base, _unchanged), (rows, operator.getitem, idx)) if _ACTIVE else ())


def segment_mean(a, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Rows of `a` averaged per segment; empty segments yield zero rows.

    The sums run by `np.bincount`, in array order from zero, so callers
    wanting a pinned order sort their rows by (segment, neighbor)
    beforehand.
    """
    seg = np.asarray(segment_ids)
    sums = _op(_scatter_rows(_data(a), seg, num_segments),
               ((a, operator.getitem, seg),) if _ACTIVE else ())
    counts = np.maximum(np.bincount(seg, minlength=num_segments), 1.0)
    return div(sums, counts.reshape((-1,) + (1,) * (sums.ndim - 1)))


def _einsum_adjoint(g, k, in_subs, out_spec, datas):
    spec = ",".join([out_spec] + in_subs[:k] + in_subs[k + 1:]) + "->" + in_subs[k]
    return np.einsum(spec, g, *datas[:k], *datas[k + 1:])


def einsum(subscripts: str, *operands) -> Tensor:
    """Multilinear einsum; each differentiated operand's indices must appear
    in the output or another operand (no internal traces), which every
    caller here obeys.
    """
    in_spec, out_spec = subscripts.replace(" ", "").split("->")
    in_subs = in_spec.split(",")
    if len(in_subs) != len(operands):
        raise ConfigError(f"{subscripts!r} expects {len(in_subs)} operands")
    datas = [_data(op) for op in operands]
    rules = []
    if _ACTIVE:
        for k, op in enumerate(operands):
            if isinstance(op, Tensor) and op.requires_grad:
                if not set(in_subs[k]) <= set(out_spec).union(*in_subs[:k], *in_subs[k + 1:]):
                    raise ConfigError(f"cannot differentiate operand {k} of {subscripts!r}")
                rules.append((op, _einsum_adjoint, k, in_subs, out_spec, datas))
    return _op(np.einsum(subscripts, *datas), rules)


class _Adjoint:
    """The backward of one `custom_adjoint` call. Each output's rule keeps
    that output's adjoint; the first input rule to run calls `adjoint`
    once and keeps the tracked inputs' adjoints until their rules take
    them, and the last rule frees `adjoint` and the saved input arrays."""

    __slots__ = ("adjoint", "datas", "tracked", "grads", "seeds")

    def __init__(self, adjoint, inputs, n_out: int):
        self.adjoint = adjoint
        self.datas = [_data(x) for x in inputs]
        self.tracked = [isinstance(x, Tensor) and x.requires_grad for x in inputs]
        self.grads: dict[int, np.ndarray] | None = None
        self.seeds: list = [None] * n_out

    def seed(self, g, i):
        """Keep output `i`'s adjoint for `adjoint`; the op's joint record
        gets a zero."""
        self.seeds[i] = g
        return np.zeros(())

    def take(self, g, k):
        if self.grads is None:
            grads = self.adjoint(self.seeds, self.tracked, *self.datas)
            # an array the sweep already holds is not handed over to a slot
            held = {id(a) for a in (*self.seeds, *self.datas)}
            self.grads = {}
            for i, t in enumerate(self.tracked):
                if t:
                    a = np.zeros(self.datas[i].shape) if grads[i] is None else grads[i]
                    self.grads[i] = a.copy() if id(a) in held else a
                    held.add(id(a))
            self.seeds = None
        grad = self.grads.pop(k)
        if not self.grads:
            self.adjoint = self.datas = None
        return grad


def custom_adjoint(fn, adjoint, *inputs):
    """`fn(*inputs)`, a tuple of outputs, recorded as one op whose
    backward is the caller's `adjoint` (gradient checkpointing with a
    written-out adjoint).

    Under a tape, `fn` runs with the tape suspended and the call gives a
    tuple of tensors: one record holds one rule per tracked input, and one
    record per output, swept first, keeps that output's adjoint. In
    backward the first input rule calls `adjoint(grads, tracked, *datas)`
    once, with the outputs' adjoints (None for an output none reached),
    the inputs' tracked flags and their arrays. It returns one entry per
    input: the adjoint of each tracked input, or None for a tracked input
    it did not reach, which gets zeros. `adjoint` runs plain numpy: it
    records nothing and makes no tape. With no tape the call is plain
    `fn(*inputs)`.

    The tape saves only the inputs' arrays, so `fn` must read every
    tracked tensor as one of `inputs`: an adjoint that reaches a tensor it
    was not given cannot return it.
    """
    if not _ACTIVE:
        return fn(*inputs)
    tape = _ACTIVE.pop()
    try:
        value = fn(*inputs)
    finally:
        _ACTIVE.append(tape)
    back = _Adjoint(adjoint, inputs, len(value))
    rules = [(x, back.take, k) for k, x in enumerate(inputs) if back.tracked[k]]
    joint = _op(np.zeros(()), rules)
    return tuple(_op(_data(v), ((joint, back.seed, i),)) for i, v in enumerate(value))
