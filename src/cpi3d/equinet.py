"""Rotation-equivariant message passing over heterogeneous complex graphs.

Node features live in irreducible blocks of degree l in {0, 1, 2}. Messages
couple source-node blocks with spherical harmonics of the edge direction
through Clebsch-Gordan contractions; per-edge scalars from an edge network
gate each coupling path, and static per-path matrices mix channels. Only
parity-even paths (l_in + l_sh + l_out even) are wired into the forward
pass, so the scalar output is invariant under reflections as well as
rotations and translations.

The readout reads only l = 0 channels, so `forward` computes only what it
reads (`live_rows`, one walk back from the readout). The final stage runs
its l_out = 0 paths and no l > 0 batch norm, update or gate. In inference,
a stage's l > 0 outputs are live only on the rows a later stage reads:
the last `pp` stage runs its l_out > 0 paths only over the edges into
residues that send a `pc` edge. In training, batch norm takes l > 0
statistics over every row, so only the final stage is pruned. The
values the readout reads are unchanged bit for bit; blocks and rows that
nothing reads are zero.

A `ReceptorCache` reuses one receptor's pp work across inference
forwards. Its receptor-only reference picks each layer's entry: the
source rows and message sums of a pp stage it runs whole, or the gates
of the last pp stage, which it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericalError
from .geograph import (CutoffConfig, EdgeKind, GraphPack, LIGAND_FEATURE_DIM,
                       RESIDUE_FEATURE_DIM, edge_geometry, rbf_embed, receptor_only)
from .so3 import allowed_paths, coupling_matrix, sh_slice, spherical_harmonics_batch

EDGE_KIND_ORDER = (EdgeKind.CC, EdgeKind.PP, EdgeKind.PC)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# edges per block of the message stage: its transient gate and message
# arrays grow with the block, not with a graph's edge count
EDGE_BLOCK = 2048


@dataclass(frozen=True)
class IrrepLayout:
    """Channel multiplicities per rotation order l = 0, 1, 2."""
    muls: tuple[int, int, int]

    def __post_init__(self):
        if len(self.muls) != 3 or any(m < 0 for m in self.muls):
            raise ConfigError(f"need three non-negative multiplicities, got {self.muls}")

    def mult(self, l: int) -> int:
        return self.muls[l]

    def degrees(self):
        return [l for l in range(3) if self.muls[l] > 0]


class IrrepFeature:
    """Feature blocks keyed by degree; block l has shape (n, mult, 2l+1)."""

    def __init__(self, layout: IrrepLayout, blocks: dict[int, Tensor | np.ndarray]):
        self.layout = layout
        self.blocks = {l: ad.as_tensor(b) for l, b in blocks.items()}
        for l in layout.degrees():
            b = self.blocks.get(l)
            if b is None or b.shape[1:] != (layout.mult(l), 2 * l + 1):
                got = None if b is None else b.shape
                raise ConfigError(f"block l={l} has shape {got}, layout wants "
                                  f"(*, {layout.mult(l)}, {2 * l + 1})")

    @property
    def n(self) -> int:
        return self.blocks[self.layout.degrees()[0]].shape[0]

    def scalars(self) -> Tensor:
        b = self.blocks[0]
        return ad.reshape(b, (b.shape[0], b.shape[1]))


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 3
    layout: IrrepLayout = field(default_factory=lambda: IrrepLayout((32, 8, 4)))
    lmax: int = 2
    edge_mlp_hidden: int = 64
    readout_hidden: int = 64
    fingerprint_width: int = 2048
    fingerprint_embed: int = 64

    def __post_init__(self):
        if self.lmax != 2:
            raise ConfigError("the architecture is fixed at lmax = 2")
        if self.layers < 1:
            raise ConfigError("need at least one layer")
        if self.layout.mult(0) < 1:
            raise ConfigError("the scalar readout path needs l=0 channels")

    def active_paths(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (li, ls, lo)
            for li, ls, lo in allowed_paths(self.lmax, parity_even_only=True)
            if self.layout.mult(li) > 0 and self.layout.mult(lo) > 0
        )

    def to_dict(self) -> dict:
        from .config import config_doc   # cpi3d.config imports this module
        return config_doc(self)


class ParameterStore:
    """Named float64 tensors; insertion order is the init order, which is
    deterministic for a fixed config and seed. A tensor is trainable if
    it requires a gradient."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ConfigError(f"duplicate parameter {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name!r}: non-finite entries")
        t = Tensor(arr, requires_grad=trainable)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._tensors.items() if t.requires_grad]

    def is_trainable(self, name: str) -> bool:
        return self._tensors[name].requires_grad

    def tensors(self, names=None) -> list[Tensor]:
        return [self._tensors[n] for n in (names or self.names())]


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def param_spec(cfg: ModelConfig, cutoffs: CutoffConfig) -> list[tuple]:
    """Every parameter as (name, shape, init, trainable), in init order.

    An int `init` is the fan-in of a uniform draw in +-1/sqrt(fan-in); a
    float `init` fills the tensor: zero biases and shifts, unit batch-norm
    scales, and identity running statistics.
    """
    mult, degrees, hidden = cfg.layout.mult, cfg.layout.degrees(), cfg.edge_mlp_hidden
    m0 = mult(0)
    paths = cfg.active_paths()
    edge_in = cutoffs.rbf_k + 2 * m0

    def dense(w, b, n_in, n_out):
        return [(w, (n_in, n_out), n_in, True), (b, (n_out,), 0.0, True)]

    spec = (dense("embed.ligand.W", "embed.ligand.b", LIGAND_FEATURE_DIM, m0)
            + dense("embed.residue.W", "embed.residue.b", RESIDUE_FEATURE_DIM, m0))
    for layer in range(cfg.layers):
        for kind in EDGE_KIND_ORDER:
            p = f"layer{layer}.{kind.value}"
            spec += (dense(f"{p}.psi.W0", f"{p}.psi.b0", edge_in, hidden)
                     + dense(f"{p}.psi.W1", f"{p}.psi.b1", hidden, hidden)
                     + dense(f"{p}.psi.W2", f"{p}.psi.b2", hidden, len(paths)))
            for li, ls, lo in paths:
                spec.append((f"{p}.tp.{li}{ls}{lo}", (mult(li), mult(lo)), mult(li), True))
            spec += [(f"{p}.bn.gamma{l}", (mult(l),), 1.0, True) for l in degrees]
            spec.append((f"{p}.bn.beta0", (m0,), 0.0, True))
            spec += [(f"{p}.proj.l{l}.W", (2 * mult(l), mult(l)), 2 * mult(l), True)
                     for l in degrees]
            spec.append((f"{p}.proj.l0.b", (m0,), 0.0, True))
            for l in degrees[1:]:
                spec += dense(f"{p}.gate.l{l}.W", f"{p}.gate.l{l}.b", m0, mult(l))
            # running batch-norm statistics (inference mode)
            spec += [(f"{p}.bn.run_mean0", (m0,), 0.0, False),
                     (f"{p}.bn.run_var0", (m0,), 1.0, False)]
            spec += [(f"{p}.bn.run_norm{l}", (mult(l),), 1.0, False) for l in degrees[1:]]
    readout_in = 2 * m0 + cfg.fingerprint_embed
    return (spec
            + dense("readout.fp.W", "readout.fp.b", cfg.fingerprint_width, cfg.fingerprint_embed)
            + dense("readout.hidden.W", "readout.hidden.b", readout_in, cfg.readout_hidden)
            + dense("readout.out.W", "readout.out.b", cfg.readout_hidden, 1))


def init_params(cfg: ModelConfig, cutoffs: CutoffConfig, seed: int = 0) -> ParameterStore:
    """Fresh parameters: `param_spec`'s draws from one generator seeded
    with `seed`, in spec order, and its fills."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for name, shape, init, trainable in param_spec(cfg, cutoffs):
        value = np.full(shape, init) if isinstance(init, float) else _uniform(rng, init, shape)
        store.add(name, value, trainable)
    return store


def params_from_state(cfg: ModelConfig, cutoffs: CutoffConfig,
                      state: dict[str, np.ndarray]) -> ParameterStore:
    """`state`'s arrays, not copied, as a store in `param_spec` order with
    its trainable flags. A missing, extra, misshapen or non-finite tensor
    raises `ConfigError` naming it."""
    spec = param_spec(cfg, cutoffs)
    names = {name for name, *_ in spec}
    missing, extra = names - set(state), set(state) - names
    if missing or extra:
        raise ConfigError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    store = ParameterStore()
    for name, shape, _, trainable in spec:
        arr = np.asarray(state[name], dtype=np.float64)
        if arr.shape != shape:
            raise ConfigError(f"{name!r}: shape {arr.shape} != {shape}")
        store.add(name, arr, trainable)
    return store


def edge_weight_net(rbf, h_a0, h_b0, weights) -> Tensor:
    """Per-edge scalars, one per coupling path, from a two-hidden-layer
    perceptron over the edges' RBF rows and both endpoint scalars.

    `weights` is the tuple (W0, b0, W1, b1, W2, b2).
    """
    W0, b0, W1, b1, W2, b2 = weights
    # no name holds the concatenated input, so it is freed before the first activation
    h = ad.silu(ad.add(ad.matmul(ad.concat([rbf, h_a0, h_b0], axis=1), W0), b0))
    h = ad.silu(ad.add(ad.matmul(h, W1), b1))
    return ad.add(ad.matmul(h, W2), b2)


def tensor_product_message(h_src: IrrepFeature, sh, path_gates,
                           path_weights: dict[tuple[int, int, int], Tensor],
                           paths, out_layout: IrrepLayout) -> IrrepFeature:
    """Couple source features with edge harmonics along the given paths.

    Each path (l_in, l_sh, l_out) starts from its gated coupling K: the
    degree-l_sh harmonic block times the path's `coupling_matrix`, scaled
    by the path's per-edge gate, as (E, 2l_in+1, 2l_out+1). The message is
    the source block (E, m_in, 2l_in+1) contracted with K, channels mixed
    by the path's (m_in, m_out) weights, in the cheaper order: an l_in = 0
    path mixes as one (E, m_in) @ (m_in, m_out) product, then scales by K;
    an l_out = 0 path contracts, then mixes as that 2-D product; any other
    path contracts in one batched matmul and mixes by one broadcast matmul
    with the transposed weights. Only one path's per-edge intermediates
    are alive at a time. On a tape the generic matmul, reshape and mul
    adjoints give its backward; `_block_adjoint` writes them out for the
    message blocks of `aggregate_messages`.

    Column i of `path_gates` gates `paths[i]`, so a caller that runs a
    subset of paths passes the matching gate columns. A path whose source
    block is all zero and off the tape (layer 0's l > 0 blocks) is
    skipped: its message is zero and it sends no adjoint.
    """
    n_e = h_src.n
    zero = {l: not b.requires_grad and not b.data.any() for l, b in h_src.blocks.items()}
    out: dict[int, Tensor] = {}
    for idx, (li, ls, lo) in enumerate(paths):
        key = (li, ls, lo)
        if key not in path_weights:
            raise ConfigError(f"missing weight matrix for path {key}")
        w = path_weights[key]
        mi, mo = h_src.layout.mult(li), out_layout.mult(lo)
        if w.shape != (mi, mo):
            raise ConfigError(f"path {key}: weight shape {w.shape} != ({mi}, {mo})")
        if zero[li]:
            continue
        sh_block = ad.take(sh, (slice(None), sh_slice(ls)))
        gate = ad.take(path_gates, (slice(None), slice(idx, idx + 1)))
        coupling = ad.reshape(ad.mul(ad.matmul(sh_block, coupling_matrix(li, ls, lo)), gate),
                              (n_e, 2 * li + 1, 2 * lo + 1))
        src = h_src.blocks[li]
        if li == 0:
            mixed = ad.matmul(ad.reshape(src, (n_e, mi)), w)
            term = ad.mul(ad.reshape(mixed, (n_e, mo, 1)), coupling)
        elif lo == 0:
            coupled = ad.matmul(src, coupling)                                 # (E, mi, 1)
            term = ad.reshape(ad.matmul(ad.reshape(coupled, (n_e, mi)), w), (n_e, mo, 1))
        else:
            term = ad.matmul(ad.einsum("cd->dc", w), ad.matmul(src, coupling))
        out[lo] = ad.add(out[lo], term) if lo in out else term
    for l in out_layout.degrees():
        if l not in out:
            out[l] = np.zeros((n_e, out_layout.mult(l), 2 * l + 1))
    return IrrepFeature(out_layout, out)


def edge_gates(e, src, dst, dist, cutoffs: CutoffConfig, h_dst, h_src, weights) -> Tensor:
    """The gates of edge ids `e`: the edge network over the RBF rows of
    their distances, embedded here, and the scalars of both endpoints."""
    return edge_weight_net(rbf_embed(ad.gather_rows(dist, e), cutoffs),
                           ad.gather_rows(h_dst, dst[e]), ad.gather_rows(h_src, src[e]), weights)


def aggregate_messages(rows: IrrepFeature, edges, src, dst, sh, gates, tp_weights, paths,
                       sums: dict) -> IrrepFeature:
    """The message stage: `sums` plus the messages of the edge ids `edges`
    at rows `dst[edges]`. Only the paths into the degrees of `sums` run,
    with their columns of the gates. `gates` is the edge network's inputs
    `(dist, cutoffs, scalars, weights)`, which give edge i the gates
    `edge_gates([i], src, dst, dist, cutoffs, scalars, scalars, weights)`,
    or a function of the edge ids that returns untracked gates (one
    column per entry of `paths`). Per block `e` of EDGE_BLOCK ids, in
    order: the gates of `e`, the messages of rows `rows[src[e]]` along
    `sh[e]`, and their `ad.index_add` into the sums, so the sums run in
    edge order (ascending (dst, src) from graph construction) whatever the
    block size.

    Each block's per-edge work, RBF rows to messages, is one
    `ad.custom_adjoint` whose backward is `_block_adjoint`, so under a
    tape the tape saves the block's inputs, node-sized tensors and
    parameters, and the written-out adjoint recomputes its per-edge arrays
    once in backward. The inputs are every tensor it reads: the row
    blocks, the scalars twice (for the src gather, then for the dst
    gather, so that the outer adjoints add in the order of the same ops
    run on the tape), the edge-network and path weights, `sh` and `dist`.
    The scatter into the sums runs outside it, and `index_add` saves only
    the ids, so the tape holds no node-sized array per block. Stored
    gates serve only the inference-only `ReceptorCache`, so a block on
    them is a plain call.
    """
    out_layout = IrrepLayout(tuple(rows.layout.mult(l) if l in sums else 0 for l in range(3)))
    run = [i for i, p in enumerate(paths) if out_layout.mult(p[2]) > 0]
    run_paths = tuple(paths[i] for i in run)
    cols = (slice(None), np.asarray(run))
    if callable(gates):
        net, cutoffs = (), None
    else:
        dist, cutoffs, scalars, psi = gates
        net = (scalars, scalars, *psi, dist)
    degrees, row_degrees, n_rows = tuple(sums), tuple(rows.blocks), len(rows.blocks)
    inputs = (*rows.blocks.values(), *(tp_weights[p] for p in run_paths), sh, *net)
    for start in range(0, len(edges), EDGE_BLOCK):
        e = edges[start:start + EDGE_BLOCK]

        def block(*xs, e=e):
            weights = dict(zip(run_paths, xs[n_rows:]))
            sh_in, *net_in = xs[n_rows + len(run_paths):]
            if net_in:
                h_b, h_a, *psi_in, dist_in = net_in
                gate = edge_gates(e, src, dst, dist_in, cutoffs, h_a, h_b, psi_in)
            else:
                gate = gates(e)
            if len(run) < len(paths):
                gate = ad.take(gate, cols)
            h_src = IrrepFeature(rows.layout, {l: ad.gather_rows(b, src[e])
                                               for l, b in zip(rows.blocks, xs[:n_rows])})
            msg = tensor_product_message(h_src, ad.gather_rows(sh_in, e), gate,
                                         weights, run_paths, out_layout)
            return tuple(msg.blocks[l] for l in degrees)

        def adjoint(seeds, tracked, *xs, e=e):
            return _block_adjoint(e, src, dst, cutoffs, paths, run, row_degrees,
                                  dict(zip(degrees, seeds)), tracked, xs)

        msgs = ad.custom_adjoint(block, adjoint, *inputs) if net else block(*inputs)
        d = dst[e]  # one copy of the ids, saved by every degree's index_add
        sums = {l: ad.index_add(sums[l], d, m) for l, m in zip(degrees, msgs)}
    return IrrepFeature(out_layout, sums)


def _silu_adjoint(g, x, s):
    """`ad.silu`'s two rules at input x with sigmoid s, added in their order."""
    return g * s + (g * x) * (s * (1.0 - s))


def _block_adjoint(e, src, dst, cutoffs, paths, run, row_degrees, seeds, tracked, xs):
    """The adjoints of one message block's inputs `xs` (in
    `aggregate_messages` order, flags `tracked`) from its messages'
    adjoints `seeds`, keyed by degree: the VJPs of the block's ops in the
    tape's reverse order, with autodiff's own adjoint expressions, so each
    adjoint equals the one a tape over the block's ops gives, bit for bit.

    It recomputes the edge network's pre-activations, one sigmoid per
    silu, and each path's gated coupling once. It skips what the tape
    would not record: the adjoints of untracked `sh` and `dist`, and the
    paths whose untracked source rows are all zero (layer 0's l > 0
    blocks), as `tensor_product_message` does on a tape. `cutoffs` embed
    the distances for the edge network. A tracked input that no adjoint
    reaches gets None.
    """
    n_rows, n_w = len(row_degrees), len(run)
    rows, t_rows = dict(zip(row_degrees, xs)), dict(zip(row_degrees, tracked))
    sh, t_sh = xs[n_rows + n_w], tracked[n_rows + n_w]
    h_b, h_a, W0, b0, W1, b1, W2, b2, dist = xs[n_rows + n_w + 1:]
    t_net = tracked[n_rows + n_w + 1:]
    n_e, src_e, dst_e = len(e), src[e], dst[e]
    diff = dist[e].reshape(n_e, 1) + -cutoffs.anchors()         # `rbf_embed`'s ops
    rbf = np.exp(diff * diff * -cutoffs.rbf_gamma)
    c = np.concatenate([rbf, h_a[dst_e], h_b[src_e]], axis=1)
    if not t_net[-1]:
        del diff, rbf
    a0 = c @ W0 + b0
    s0 = ad._sigmoid(a0)
    a1 = (a0 * s0) @ W1 + b1        # each silu's output is recomputed where it is read
    s1 = ad._sigmoid(a1)
    gate = (a1 * s1) @ W2 + b2
    cols = (slice(None), np.asarray(run))
    if n_w < len(paths):
        gate = gate[cols]
    sh_e = sh[e]
    grads, gathered, g_rows = [None] * len(xs), {}, {}
    # each path adds its own gate column once, and 0.0 + x is never -0.0, so
    # adding into column slices equals the tape's sum of zero-filled takes
    g_gate = np.zeros(gate.shape) if any(t_net) else None
    g_sh = np.zeros(sh_e.shape) if t_sh else None
    reached = False
    for i in reversed(range(n_w)):
        li, ls, lo = paths[run[i]]
        g = seeds.get(lo)
        if g is None:
            continue
        if li not in gathered:
            gathered[li] = rows[li][src_e]
        s, w, cmat = gathered[li], xs[n_rows + i], coupling_matrix(li, ls, lo)
        if not t_rows[li] and not s.any():
            continue
        reached = True
        n_in, n_out = s.shape[1], g.shape[1]
        cm = sh_e[:, sh_slice(ls)] @ cmat
        gc = gate[:, i:i + 1]
        K = (cm * gc).reshape(n_e, 2 * li + 1, 2 * lo + 1)
        if li == 0:
            s2 = s.reshape(n_e, n_in)
            g_mixed = np.reshape(ad._unbroadcast(g * K, (n_e, n_out, 1)), (n_e, n_out))
            g_s = np.reshape(ad._matmul_adjoint(g_mixed, w, 2, -2), s.shape)
            g_w = ad._matmul_adjoint(g_mixed, s2, 2, -1)
            g_K = ad._unbroadcast(g * (s2 @ w).reshape(n_e, n_out, 1), (n_e, 1, 2 * lo + 1))
        elif lo == 0:
            g_t2 = np.reshape(g, (n_e, n_out))
            g_coupled = np.reshape(ad._matmul_adjoint(g_t2, w, 2, -2), (n_e, n_in, 1))
            g_w = ad._matmul_adjoint(g_t2, (s @ K).reshape(n_e, n_in), 2, -1)
            g_s = ad._matmul_adjoint(g_coupled, K, 3, -2)
            g_K = ad._matmul_adjoint(g_coupled, s, 3, -1)
        else:
            g_w = np.einsum("dc->cd", ad._matmul_adjoint(g, s @ K, 2, -2))
            g_sc = ad._matmul_adjoint(g, np.einsum("cd->dc", w), 3, -1)
            g_s = ad._matmul_adjoint(g_sc, K, 3, -2)
            g_K = ad._matmul_adjoint(g_sc, s, 3, -1)
        g_cg = np.reshape(g_K, cm.shape)
        if g_gate is not None:
            g_gate[:, i:i + 1] += ad._unbroadcast(g_cg * cm, gc.shape)
        if g_sh is not None:
            g_sh[:, sh_slice(ls)] += ad._matmul_adjoint(g_cg * gc, cmat, 2, -2)
        if li in g_rows:
            g_rows[li] += g_s
        else:
            g_rows[li] = g_s
        grads[n_rows + i] = g_w
    for k, l in enumerate(row_degrees):
        if l in g_rows:
            grads[k] = ad._scatter_rows(g_rows[l], src_e, len(rows[l]))
    if not reached:
        return grads
    if g_sh is not None:
        grads[n_rows + n_w] = ad._scatter_rows(g_sh, e, len(sh))
    if g_gate is not None:
        if n_w < len(paths):
            g_gate = ad._scatter_adjoint(g_gate, cols, (n_e, len(paths)))
        k = n_rows + n_w + 1        # h_b, h_a, W0, b0, W1, b1, W2, b2, dist from here
        grads[k + 6] = ad._matmul_adjoint(g_gate, a1 * s1, 2, -1)
        grads[k + 7] = ad._unbroadcast(g_gate, b2.shape)
        g_a1 = _silu_adjoint(ad._matmul_adjoint(g_gate, W2, 2, -2), a1, s1)
        del g_gate, a1, s1
        grads[k + 4] = ad._matmul_adjoint(g_a1, a0 * s0, 2, -1)
        grads[k + 5] = ad._unbroadcast(g_a1, b1.shape)
        g_a0 = _silu_adjoint(ad._matmul_adjoint(g_a1, W1, 2, -2), a0, s0)
        del g_a1, a0, s0
        grads[k + 2] = ad._matmul_adjoint(g_a0, c, 2, -1)
        grads[k + 3] = ad._unbroadcast(g_a0, b0.shape)
        del c
        if t_net[0] or t_net[1] or t_net[-1]:
            g_c = ad._matmul_adjoint(g_a0, W0, 2, -2)
            n_rbf, m0 = g_c.shape[1] - 2 * h_a.shape[1], h_a.shape[1]
            grads[k] = ad._scatter_rows(g_c[:, n_rbf + m0:], src_e, len(h_b))
            grads[k + 1] = ad._scatter_rows(g_c[:, n_rbf:n_rbf + m0], dst_e, len(h_a))
            if t_net[-1]:
                t = g_c[:, :n_rbf] * rbf * -cutoffs.rbf_gamma * diff
                grads[k + 8] = ad._scatter_rows(
                    np.reshape(ad._unbroadcast(t + t, (n_e, 1)), (n_e,)), e, len(dist))
    return grads


def equivariant_batch_norm(feat: IrrepFeature, gamma: dict[int, Tensor], beta0,
                           run_mean0, run_var0, run_norms: dict[int, Tensor],
                           training: bool, node_graph: np.ndarray) -> IrrepFeature:
    """Batch normalization that commutes with rotations.

    l=0 channels get standard batch norm with affine gamma/beta. l>0
    channels are divided by the batch RMS of their vector norms and scaled
    by gamma only: no mean shift, no offset, so directions are untouched.

    In training the statistics are taken per graph: `node_graph` maps each
    node to its graph in a pack (ascending, as `pack_graphs` numbers
    them), and the running statistics take one EMA step per graph, in
    graph order. In inference mode the running statistics are used
    verbatim.
    """
    n_graphs = int(node_graph[-1]) + 1
    out: dict[int, Tensor] = {}
    for l in feat.layout.degrees():
        block = feat.blocks[l]
        ml = feat.layout.mult(l)
        if l == 0:
            x = ad.reshape(block, (block.shape[0], ml))
            if training:
                mean = ad.segment_mean(x, node_graph, n_graphs)     # (graphs, ml)
                centered = ad.add(x, ad.mul(ad.gather_rows(mean, node_graph), -1.0))
                var = ad.segment_mean(ad.mul(centered, centered), node_graph, n_graphs)
                _ema_per_graph(run_mean0, mean.data)
                _ema_per_graph(run_var0, var.data)
                denom = ad.gather_rows(ad.sqrt(ad.add(var, BN_EPS)), node_graph)
            else:
                centered = ad.add(x, -run_mean0.data)
                denom = ad.sqrt(ad.add(Tensor(run_var0.data), BN_EPS))
            normed = ad.div(centered, denom)
            y = ad.add(ad.mul(normed, gamma[0]), beta0)
            out[0] = ad.reshape(y, (block.shape[0], ml, 1))
        else:
            if training:
                sq = ad.tsum(ad.mul(block, block), axis=2)          # (n, ml)
                msq = ad.segment_mean(sq, node_graph, n_graphs)     # (graphs, ml)
                _ema_per_graph(run_norms[l], msq.data)
            else:
                msq = Tensor(run_norms[l].data)
            rms = ad.sqrt(ad.add(msq, BN_EPS))
            scale = ad.div(gamma[l], rms)                           # (graphs or 1, ml)
            if training:
                scale = ad.gather_rows(scale, node_graph)
            out[l] = ad.mul(block, ad.reshape(scale, (-1, ml, 1)))
    return IrrepFeature(feat.layout, out)


def _ema_per_graph(running: Tensor, stats: np.ndarray):
    """One running-statistic EMA step per row (graph) of `stats`, in order."""
    for row in stats:
        running.data = (1 - BN_MOMENTUM) * running.data + BN_MOMENTUM * row


def node_update(h: IrrepFeature, incoming: IrrepFeature,
                proj: dict[int, Tensor], proj_bias0) -> IrrepFeature:
    """Concatenate incoming blocks onto the current ones channel-wise and
    project back to the layout width, mixing only within equal l: the
    scalars as one (n, 2m) @ (2m, m) product plus the bias, each l > 0
    block (n, 2m, 2l+1) by one broadcast matmul with the transposed
    (2m, m) weights."""
    if h.layout != incoming.layout:
        raise ConfigError("node_update needs matching layouts")
    out: dict[int, Tensor] = {}
    for l in h.layout.degrees():
        cat = ad.concat([h.blocks[l], incoming.blocks[l]], axis=1)  # (n, 2ml, 2l+1)
        if l == 0:
            m0 = h.layout.mult(0)
            mixed = ad.add(ad.matmul(ad.reshape(cat, (h.n, 2 * m0)), proj[0]), proj_bias0)
            out[0] = ad.reshape(mixed, (h.n, m0, 1))
        else:
            out[l] = ad.matmul(ad.einsum("cd->dc", proj[l]), cat)
    return IrrepFeature(h.layout, out)


def gated_activation(h: IrrepFeature, gates: dict[int, tuple[Tensor, Tensor]]) -> IrrepFeature:
    """Sigmoid gates from the scalar channels multiply each l>0 channel;
    the scalars themselves pass through a smooth nonlinearity."""
    scalars = h.scalars()
    out: dict[int, Tensor] = {}
    for l in h.layout.degrees():
        if l == 0:
            act = ad.silu(scalars)
            out[0] = ad.reshape(act, (act.shape[0], h.layout.mult(0), 1))
        else:
            W, b = gates[l]
            g = ad.sigmoid(ad.add(ad.matmul(scalars, W), b))        # (n, ml)
            out[l] = ad.mul(h.blocks[l], ad.reshape(g, (g.shape[0], h.layout.mult(l), 1)))
    return IrrepFeature(h.layout, out)


def invariant_pool(h: IrrepFeature, node_graph: np.ndarray, kinds: np.ndarray,
                   n_graphs: int) -> Tensor:
    """Per graph, the mean of the l=0 channels over its ligand nodes
    concatenated with the mean over its residue nodes: (n_graphs, 2 m0).
    Only scalars enter, so the result is exactly rotation invariant."""
    scalars = h.scalars()
    means = ad.segment_mean(scalars, 2 * node_graph + kinds, 2 * n_graphs)
    return ad.reshape(means, (n_graphs, 2 * scalars.shape[1]))


def readout(pooled: Tensor, fp: np.ndarray, weights) -> Tensor:
    """Project fingerprint bits to a dense vector, join with the pooled
    graph summary, and regress to one scalar per row through a two-layer
    head: (B, P) pooled rows and their (B, width) bit matrix give (B,)
    predictions. The fingerprint projection is one (B, width) matmul."""
    Wfp, bfp, W1, b1, W2, b2 = weights
    if fp.shape != (pooled.shape[0], Wfp.shape[0]):
        raise ConfigError(f"fingerprint matrix {fp.shape} != ({pooled.shape[0]} rows, "
                          f"configured width {Wfp.shape[0]})")
    fp_dense = ad.add(ad.matmul(Tensor(fp.astype(np.float64)), Wfp), bfp)
    hidden = ad.silu(ad.add(ad.matmul(ad.concat([pooled, fp_dense], axis=1), W1), b1))
    out = ad.add(ad.matmul(hidden, W2), b2)
    return ad.reshape(out, (pooled.shape[0],))


def _edge_tensors(pack: GraphPack):
    """Per-kind constant edge arrays: indices, distances, harmonics."""
    out = {}
    for kind, es in pack.edges.items():
        r_vec, dist = edge_geometry(pack, es)
        unit = r_vec / np.where(dist[:, None] > 1e-10, dist[:, None], 1.0)
        out[kind] = (es.a, es.b, dist, spherical_harmonics_batch(unit))
    return out


class ReceptorCache:
    """The receptor-only pp work of inference forwards, for one receptor.

    The entry is keyed on the bytes of the residue features and residue
    positions, and on the parameter store that filled it. A graph of
    another receptor refills it from the reference: one forward of that
    receptor alone (`geograph.receptor_only`: its residues and pp edges,
    no ligand node, no cc or pc edge) without a readout.

    The reference picks each layer's entry. A layer whose pp stage it runs
    whole (every edge ends on a live row) keeps the reference's pp source
    rows and per-residue message sums, to which a ligand adds the messages
    of its row changes. The other layer, the last, keeps only the gates of
    every pp edge, which depend only on the distances and the layer-0
    residue embeddings, and every ligand runs its stage on them. No
    ligand's forward becomes the reference, so a prediction from the cache
    depends only on its receptor and its ligand. `recomputed` maps each
    layer to the number of pp edges whose messages the last forward
    computed: the edges from the residues whose rows differ from the
    reference's on a layer with reference sums, every edge on the layer
    with stored gates.
    """

    def __init__(self):
        self._key = None
        self._params = None
        self.gates: dict[int, np.ndarray] = {}
        self.ref_rows: dict[int, dict[int, np.ndarray]] = {}
        self.ref_sums: dict[int, dict[int, np.ndarray]] = {}
        self.recomputed: dict[int, int] = {}

    def select(self, pack: GraphPack, params: ParameterStore, cfg: ModelConfig):
        """Keep the entry if `pack`, a pack of one, holds its receptor,
        else fill it with that receptor's reference."""
        key = (pack.residue_features.tobytes(), pack.positions[pack.n_ligand:].tobytes())
        if key != self._key or params is not self._params:
            self._key, self._params = None, None    # unkeyed until the reference is whole
            self.gates, self.ref_rows, self.ref_sums = {}, {}, {}
            _propagate(receptor_only(pack), params, cfg, cache=self)
            self._key, self._params = key, params
        self.recomputed = {}


def live_rows(pack: GraphPack, edge_data, layers: int, training: bool) -> list[np.ndarray]:
    """Walk back from the readout: per stage, in forward order, the node
    mask of the rows whose l > 0 outputs a later stage reads.

    The readout reads l = 0 only, so nothing of the final stage's l > 0
    outputs is read. A stage reads every block of its edges' sources (its
    l_out = 0 paths run on every edge), and the l > 0 rows that are live
    after it (the update mixes within a row). In training, batch norm
    takes l > 0 statistics over every row and the running statistics are
    kept for inference, so every stage but the final one stays whole.
    """
    n = pack.n_nodes
    live = np.zeros(n, dtype=bool)
    masks = []
    for kind in reversed(EDGE_KIND_ORDER * layers):
        masks.append(live)
        if training:
            live = np.ones(n, dtype=bool)
        else:
            live = live.copy()
            live[edge_data[kind][1]] = True
    return masks[::-1]


def _stage_sums(h: IrrepFeature, live, edges, gates, tp_weights, paths) -> dict:
    """The message sums of one uncached stage: the l = 0 sums over every
    edge, and the l > 0 sums over the edges into `live` rows; one pass when
    the stage is whole (every edge ends on a live row)."""
    a_idx, b_idx, _, sh = edges
    zeros = {l: np.zeros(b.shape) for l, b in h.blocks.items()}
    if live[a_idx].all():
        return aggregate_messages(h, np.arange(len(a_idx)), b_idx, a_idx, sh, gates,
                                  tp_weights, paths, zeros).blocks
    sums = aggregate_messages(h, np.arange(len(a_idx)), b_idx, a_idx, sh, gates, tp_weights,
                              paths, {0: zeros.pop(0)}).blocks
    if zeros:
        sums.update(aggregate_messages(h, np.flatnonzero(live[a_idx]), b_idx, a_idx, sh, gates,
                                       tp_weights, paths, zeros).blocks)
    return sums


def _all_gates(gates, src, dst, n_paths: int) -> np.ndarray:
    """The untracked gates of every edge, computed in EDGE_BLOCK blocks."""
    dist, cutoffs, scalars, psi = gates
    out = np.empty((len(src), n_paths))
    for start in range(0, len(src), EDGE_BLOCK):
        e = np.arange(start, min(start + EDGE_BLOCK, len(src)))
        out[e] = edge_gates(e, src, dst, dist, cutoffs, scalars, scalars, psi).data
    return out


def _cached_pp_sums(cache: ReceptorCache, layer: int, live, gates, tp_weights, paths,
                    h: IrrepFeature, edges, n_ligand: int) -> dict:
    """The pp message sums of one inference layer, from the cache.

    The reference's forward finds no entry for the layer and fills it. A
    stage it runs whole keeps its source rows and its sums over every edge
    and path. The stage it does not run whole is the last pp stage (pp
    edges run both ways, so a later pp stage keeps every earlier one
    whole), whose sums nothing reads; it keeps the gates of every edge.
    On a layer with reference sums, a ligand adds to them the messages of
    `rows - ref_rows` over the edges leaving residues whose rows differ,
    as a pp edge's message is linear in its source rows. On a layer with
    stored gates, it runs `_stage_sums` on them.
    """
    a_idx, b_idx, _, sh = edges
    if layer in cache.gates:
        cache.recomputed[layer] = len(a_idx)
        return _stage_sums(h, live, edges, cache.gates[layer].__getitem__, tp_weights, paths)
    if layer not in cache.ref_rows:    # the reference's forward, with no ligand rows
        zeros = {l: np.zeros(b.shape) for l, b in h.blocks.items()}
        if not live[a_idx].all():
            cache.gates[layer] = _all_gates(gates, b_idx, a_idx, len(paths))
            return zeros
        cache.ref_rows[layer] = {l: b.data for l, b in h.blocks.items()}
        sums = aggregate_messages(h, np.arange(len(a_idx)), b_idx, a_idx, sh, gates,
                                  tp_weights, paths, zeros).blocks
        cache.ref_sums[layer] = {l: s.data for l, s in sums.items()}
        return sums
    ref_rows = cache.ref_rows[layer]
    rows, sums = {}, {}
    differs = np.zeros(h.n, dtype=bool)
    for l, b in h.blocks.items():
        rows[l] = b.data.copy()
        rows[l][n_ligand:] -= ref_rows[l]
        differs |= (rows[l] != 0).reshape(h.n, -1).any(axis=1)
        sums[l] = np.zeros_like(rows[l])
        sums[l][n_ligand:] = cache.ref_sums[layer][l]
    ids = np.flatnonzero(differs[b_idx])    # pp edges leave residue rows only
    cache.recomputed[layer] = len(ids)
    return aggregate_messages(IrrepFeature(h.layout, rows), ids, b_idx, a_idx, sh, gates,
                              tp_weights, paths, sums).blocks


def forward(pack: GraphPack, fp: np.ndarray, params: ParameterStore,
            cfg: ModelConfig, training: bool = False, cache: ReceptorCache | None = None,
            features: list | None = None) -> Tensor:
    """Scalar predictions for a pack of complex graphs, one per graph.

    `fp` is the pack's (B, width) fingerprint bit matrix, one row per
    graph in pack order, and the prediction is (B,). Each round
    processes edge kinds cc, pp, pc in that fixed order with kind-specific
    parameters: the message stage (edge gates, tensor-product messages and
    their per-node sums, in blocks of EDGE_BLOCK edges) divided by the
    in-degree, equivariant batch norm (per-graph statistics in training),
    concat-project node update, gated activation. Scalars are then pooled
    per graph and node kind and regressed together with the fingerprint.

    Each stage computes only what the readout reads (`live_rows`): the
    final stage runs its l_out = 0 paths and only its l = 0 batch norm,
    update and activation, so its l > 0 blocks are zero and, in training,
    its l > 0 running statistics stay at their initial values. In
    inference a stage runs its l_out > 0 paths only over the edges into
    live rows, which leaves out the last pp stage's edges into residues
    that send no pc edge; rows that no later stage reads are set to zero.
    A `features` list gets the node features after each stage, as
    {"layer", "kind", "feature"} dicts, which show these zeros.

    Each block of edges embeds its distances in RBF rows with the cutoffs
    the pack records (`edge_gates`).
    `cache` (inference only) takes the pp message sums of a pack of one
    from a `ReceptorCache`, which reuses the receptor's work across ligands,
    gives the same bits whatever ligands it served before, and agrees with
    the uncached forward to rounding; a larger pack runs uncached.
    """
    if cache is not None:
        if training:
            raise ConfigError("the receptor cache serves inference forwards only")
        if pack.n_graphs == 1:
            cache.select(pack, params, cfg)
        else:
            cache = None
    h = _propagate(pack, params, cfg, training, cache, features)
    pooled = invariant_pool(h, pack.node_graph, pack.kinds, pack.n_graphs)
    return readout(pooled, fp, tuple(
        params[f"readout.{w}"] for w in ("fp.W", "fp.b", "hidden.W", "hidden.b", "out.W", "out.b")
    ))


def _propagate(pack: GraphPack, params: ParameterStore, cfg: ModelConfig, training=False,
               cache=None, features=None) -> IrrepFeature:
    """`forward`'s embedding and message-passing stages: the node features
    after the final stage, each stage's appended to `features` if given."""
    layout = cfg.layout
    m0 = layout.mult(0)
    n = pack.n_nodes

    h0_lig = ad.add(ad.matmul(Tensor(pack.ligand_features), params["embed.ligand.W"]),
                    params["embed.ligand.b"])
    h0_res = ad.add(ad.matmul(Tensor(pack.residue_features), params["embed.residue.W"]),
                    params["embed.residue.b"])
    h0_scalars = ad.gather_rows(ad.concat([h0_lig, h0_res], axis=0), pack.feature_rows)

    blocks: dict[int, Tensor | np.ndarray] = {0: ad.reshape(h0_scalars, (n, m0, 1))}
    for l in layout.degrees():
        if l > 0:
            blocks[l] = np.zeros((n, layout.mult(l), 2 * l + 1))
    h = IrrepFeature(layout, blocks)

    edge_data = _edge_tensors(pack)
    paths = cfg.active_paths()
    live_masks = iter(live_rows(pack, edge_data, cfg.layers, training))

    for layer in range(cfg.layers):
        for kind in EDGE_KIND_ORDER:
            prefix = f"layer{layer}.{kind.value}"
            a_idx, b_idx, dist, sh = edge_data[kind]
            live = next(live_masks)
            # a stage with no live l > 0 row runs on its scalars alone
            stage = layout if live.any() else IrrepLayout((m0, 0, 0))

            psi_weights = tuple(params[f"{prefix}.psi.{w}"]
                                for w in ("W0", "b0", "W1", "b1", "W2", "b2"))
            tp_weights = {p: params[f"{prefix}.tp.{p[0]}{p[1]}{p[2]}"] for p in paths}

            gates = (dist, pack.cutoffs, h0_scalars, psi_weights)
            if cache is not None and kind is EdgeKind.PP:
                sums = _cached_pp_sums(cache, layer, live, gates, tp_weights, paths, h,
                                       (a_idx, b_idx, dist, sh), pack.n_ligand)
            else:
                sums = _stage_sums(h, live, (a_idx, b_idx, dist, sh), gates, tp_weights, paths)
            degree = np.maximum(np.bincount(a_idx, minlength=n), 1.0).reshape(-1, 1, 1)
            agg = IrrepFeature(stage, {l: ad.div(sums[l], degree) for l in stage.degrees()})
            bn = equivariant_batch_norm(
                agg,
                {l: params[f"{prefix}.bn.gamma{l}"] for l in stage.degrees()},
                params[f"{prefix}.bn.beta0"],
                params[f"{prefix}.bn.run_mean0"],
                params[f"{prefix}.bn.run_var0"],
                {l: params[f"{prefix}.bn.run_norm{l}"] for l in stage.degrees() if l > 0},
                training=training, node_graph=pack.node_graph,
            )
            out = node_update(
                IrrepFeature(stage, {l: h.blocks[l] for l in stage.degrees()}), bn,
                {l: params[f"{prefix}.proj.l{l}.W"] for l in stage.degrees()},
                params[f"{prefix}.proj.l0.b"],
            )
            out = gated_activation(out, {
                l: (params[f"{prefix}.gate.l{l}.W"], params[f"{prefix}.gate.l{l}.b"])
                for l in stage.degrees() if l > 0
            })
            blocks = dict(out.blocks)
            for l in layout.degrees():
                if l not in blocks:
                    blocks[l] = np.zeros((n, layout.mult(l), 2 * l + 1))
                elif l > 0 and not live.all():
                    blocks[l] = ad.mul(blocks[l], live.reshape(-1, 1, 1).astype(np.float64))
            h = IrrepFeature(layout, blocks)
            for l in layout.degrees():
                if not np.all(np.isfinite(h.blocks[l].data)):
                    raise NumericalError(
                        f"non-finite features after layer {layer} kind {kind.value} (l={l})"
                    )
            if features is not None:
                features.append({"layer": layer, "kind": kind.value, "feature": h})
    return h


@dataclass
class Model:
    """Bundled config + parameters."""
    cfg: ModelConfig
    cutoffs: CutoffConfig
    params: ParameterStore
