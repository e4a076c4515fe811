"""Minimal reverse-mode automatic differentiation over numpy arrays.

Operations executed inside a `with Tape() as tape:` block are recorded in
order; `tape.gradient(loss, sources)` seeds the scalar loss with adjoint 1
and replays the recorded adjoint functions in exact reverse order. Outside
a tape, the same ops run as plain numpy with no recording overhead. All
arithmetic is float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_ACTIVE: list["Tape"] = []
_EPOCH = [0]


class Tape:
    """Ordered record of primitive operations for adjoint replay."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
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

    def _record(self, out: "Tensor", backward):
        self._records.append((out, backward))

    def gradient(self, loss: "Tensor", sources) -> list[np.ndarray]:
        """Adjoints of `loss` with respect to each source tensor.

        Sources never reached by the recorded computation get zero
        gradients. The tape is single-use.
        """
        if self._consumed:
            raise ConfigError("tape already replayed")
        self._consumed = True
        if loss.data.size != 1:
            raise ConfigError(f"loss must be scalar, got shape {loss.data.shape}")
        _EPOCH[0] += 1
        epoch = _EPOCH[0]
        _accumulate(loss, np.ones_like(loss.data), epoch)
        for out, backward in reversed(self._records):
            if out._epoch == epoch and out.grad is not None:
                backward(out.grad, epoch)
        result = []
        for s in sources:
            if s._epoch == epoch and s.grad is not None:
                result.append(s.grad)
            else:
                result.append(np.zeros_like(s.data))
        return result


def _accumulate(t: "Tensor", g: np.ndarray, epoch: int):
    if t._epoch != epoch:
        t._epoch = epoch
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


class Tensor:
    """A float64 numpy array plus an adjoint slot."""

    __slots__ = ("data", "grad", "requires_grad", "_epoch")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._epoch = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self._tracked()})"

    def _tracked(self) -> bool:
        return bool(_ACTIVE) and self.requires_grad


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _wants_tape(*xs) -> Tape | None:
    if not _ACTIVE:
        return None
    for x in xs:
        if isinstance(x, Tensor) and (x.requires_grad or x._epoch == -2):
            return _ACTIVE[0]
    return None


def _mark(out: Tensor) -> Tensor:
    # _epoch == -2 marks a tensor produced on the active tape
    out._epoch = -2
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


def add(a, b) -> Tensor:
    tape = _wants_tape(a, b)
    ad, bd = _data(a), _data(b)
    out = Tensor(ad + bd)
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, b=b, ash=ad.shape, bsh=bd.shape):
            if isinstance(a, Tensor):
                _accumulate(a, _unbroadcast(g, ash), epoch)
            if isinstance(b, Tensor):
                _accumulate(b, _unbroadcast(g, bsh), epoch)

        tape._record(out, backward)
    return out


def mul(a, b) -> Tensor:
    tape = _wants_tape(a, b)
    ad, bd = _data(a), _data(b)
    out = Tensor(ad * bd)
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, b=b, ad=ad, bd=bd):
            if isinstance(a, Tensor):
                _accumulate(a, _unbroadcast(g * bd, ad.shape), epoch)
            if isinstance(b, Tensor):
                _accumulate(b, _unbroadcast(g * ad, bd.shape), epoch)

        tape._record(out, backward)
    return out


def div(a, b) -> Tensor:
    tape = _wants_tape(a, b)
    ad, bd = _data(a), _data(b)
    out = Tensor(ad / bd)
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, b=b, ad=ad, bd=bd):
            if isinstance(a, Tensor):
                _accumulate(a, _unbroadcast(g / bd, ad.shape), epoch)
            if isinstance(b, Tensor):
                _accumulate(b, _unbroadcast(-g * ad / (bd * bd), bd.shape), epoch)

        tape._record(out, backward)
    return out


def power(a, p: float) -> Tensor:
    tape = _wants_tape(a)
    ad = _data(a)
    out = Tensor(ad ** p)
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, ad=ad, p=p):
            _accumulate(a, g * p * ad ** (p - 1.0), epoch)

        tape._record(out, backward)
    return out


def _rows_by_batch(x: np.ndarray, batch: tuple, axis: int) -> np.ndarray:
    """`x` broadcast over the batch shape, as a 2-D array whose rows are
    its `axis` (-2 or -1) and whose columns run over everything else."""
    x = np.moveaxis(np.broadcast_to(x, batch + x.shape[-2:]), axis, 0)
    return x.reshape(x.shape[0], -1)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching; an operand broadcast over batch
    dimensions gets its adjoint summed over them. A 2-D operand of a
    batched product gets that sum as one 2-D product over the batch."""
    tape = _wants_tape(a, b)
    ad, bd = _data(a), _data(b)
    out = Tensor(ad @ bd)
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, b=b, ad=ad, bd=bd):
            batch = g.shape[:-2]
            if isinstance(a, Tensor):
                if ad.ndim == 2 and batch:
                    ga = _rows_by_batch(g, batch, -2) @ _rows_by_batch(bd, batch, -2).T
                else:
                    ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
                _accumulate(a, ga, epoch)
            if isinstance(b, Tensor):
                if bd.ndim == 2 and batch:
                    gb = _rows_by_batch(ad, batch, -1) @ _rows_by_batch(g, batch, -1).T
                else:
                    gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
                _accumulate(b, gb, epoch)

        tape._record(out, backward)
    return out


def _unary(a, fn, dfn) -> Tensor:
    tape = _wants_tape(a)
    ad = _data(a)
    out = Tensor(fn(ad))
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, ad=ad, od=out.data):
            _accumulate(a, g * dfn(ad, od), epoch)

        tape._record(out, backward)
    return out


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda x, y: y)


def log(a) -> Tensor:
    return _unary(a, np.log, lambda x, y: 1.0 / x)


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda x, y: 0.5 / y)


def sin(a) -> Tensor:
    return _unary(a, np.sin, lambda x, y: np.cos(x))


def cos(a) -> Tensor:
    return _unary(a, np.cos, lambda x, y: -np.sin(x))


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y)


def sigmoid(a) -> Tensor:
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, y: y * (1.0 - y))


def silu(a) -> Tensor:
    return mul(a, sigmoid(a))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    tape = _wants_tape(a)
    ad = _data(a)
    out = Tensor(ad.sum(axis=axis, keepdims=keepdims))
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, ad=ad, axis=axis, keepdims=keepdims):
            if axis is None:
                grad = np.broadcast_to(g, ad.shape)
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                grad = np.broadcast_to(gg, ad.shape)
            _accumulate(a, grad, epoch)

        tape._record(out, backward)
    return out


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
    tape = _wants_tape(a)
    ad = _data(a)
    out = Tensor(ad.reshape(shape))
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, orig=ad.shape):
            _accumulate(a, g.reshape(orig), epoch)

        tape._record(out, backward)
    return out


def concat(parts, axis: int = 0) -> Tensor:
    tape = _wants_tape(*parts)
    datas = [_data(p) for p in parts]
    out = Tensor(np.concatenate(datas, axis=axis))
    if tape is not None:
        _mark(out)
        sizes = [d.shape[axis] for d in datas]

        def backward(g, epoch, parts=parts, sizes=sizes, axis=axis):
            offset = 0
            for p, size in zip(parts, sizes):
                if isinstance(p, Tensor):
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(offset, offset + size)
                    _accumulate(p, g[tuple(sl)], epoch)
                offset += size

        tape._record(out, backward)
    return out


def take(a, key) -> Tensor:
    """Basic and integer-array indexing with scatter-add adjoint."""
    tape = _wants_tape(a)
    ad = _data(a)
    out = Tensor(ad[key])
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, key=key, shape=ad.shape):
            buf = np.zeros(shape)
            np.add.at(buf, key, g)
            _accumulate(a, buf, epoch)

        tape._record(out, backward)
    return out


def gather_rows(a, idx: np.ndarray) -> Tensor:
    return take(a, np.asarray(idx))


def segment_mean(a, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Rows of `a` averaged per segment; empty segments yield zero rows.

    Summation runs in array order, so callers wanting a pinned order sort
    their rows by (segment, neighbor) beforehand.
    """
    tape = _wants_tape(a)
    ad = _data(a)
    seg = np.asarray(segment_ids)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    sums = np.zeros((num_segments,) + ad.shape[1:])
    np.add.at(sums, seg, ad)
    out = Tensor(sums / safe.reshape((-1,) + (1,) * (ad.ndim - 1)))
    if tape is not None:
        _mark(out)

        def backward(g, epoch, a=a, seg=seg, safe=safe, nd=ad.ndim):
            scale = safe.reshape((-1,) + (1,) * (nd - 1))
            _accumulate(a, (g / scale)[seg], epoch)

        tape._record(out, backward)
    return out


def einsum(subscripts: str, *operands) -> Tensor:
    """Multilinear einsum; each operand's indices must appear in the output
    or another operand (no internal traces), which every caller here obeys.
    """
    in_spec, out_spec = subscripts.replace(" ", "").split("->")
    in_subs = in_spec.split(",")
    if len(in_subs) != len(operands):
        raise ConfigError(f"{subscripts!r} expects {len(in_subs)} operands")
    tape = _wants_tape(*operands)
    datas = [_data(op) for op in operands]
    out = Tensor(np.einsum(subscripts, *datas))
    if tape is not None:
        for k, op in enumerate(operands):
            if isinstance(op, Tensor):
                external = set(out_spec).union(*(s for i, s in enumerate(in_subs) if i != k))
                if not set(in_subs[k]) <= external:
                    raise ConfigError(f"cannot differentiate operand {k} of {subscripts!r}")
        _mark(out)

        def backward(g, epoch, operands=operands, datas=datas,
                     in_subs=in_subs, out_spec=out_spec):
            for k, op in enumerate(operands):
                if not isinstance(op, Tensor):
                    continue
                other_subs = [out_spec] + [s for i, s in enumerate(in_subs) if i != k]
                other_data = [g] + [d for i, d in enumerate(datas) if i != k]
                spec = ",".join(other_subs) + "->" + in_subs[k]
                _accumulate(op, np.einsum(spec, *other_data), epoch)

        tape._record(out, backward)
    return out
