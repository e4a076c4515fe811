"""Rotation-equivariant message passing over heterogeneous complex graphs.

Node features live in irreducible blocks of degree l in {0, 1, 2}. Messages
couple source-node blocks with spherical harmonics of the edge direction
through Clebsch-Gordan contractions; per-edge scalars from an edge network
gate each coupling path, and static per-path matrices mix channels. Only
parity-even paths (l_in + l_sh + l_out even) are wired into the forward
pass, so the scalar output is invariant under reflections as well as
rotations and translations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericalError
from .fingerprint import Fingerprint
from .geograph import (CutoffConfig, EdgeKind, GraphPack, HeteroGraph, LIGAND_FEATURE_DIM,
                       RESIDUE_FEATURE_DIM, pack_graphs)
from .so3 import allowed_paths, clebsch_gordan, sh_slice, spherical_harmonics_batch

EDGE_KIND_ORDER = (EdgeKind.CC, EdgeKind.PP, EdgeKind.PC)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# pp edges per block on the cached path: its transient gate and message
# arrays grow with the block, not with the receptor's edge count
PP_EDGE_BLOCK = 2048


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

    def detach(self) -> "IrrepFeature":
        return IrrepFeature(self.layout, {l: b.data.copy() for l, b in self.blocks.items()})


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
    deterministic for a fixed config and seed."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, array: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ConfigError(f"duplicate parameter {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"parameter {name!r} has non-finite entries")
        t = Tensor(arr, requires_grad=trainable)
        self._tensors[name] = t
        self._trainable[name] = trainable
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def trainable_names(self) -> list[str]:
        return [n for n, flag in self._trainable.items() if flag]

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def tensors(self, names=None) -> list[Tensor]:
        return [self._tensors[n] for n in (names or self.names())]

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._tensors.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        missing = set(self._tensors) - set(state)
        extra = set(state) - set(self._tensors)
        if missing or extra:
            raise ConfigError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, arr in state.items():
            t = self._tensors[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ConfigError(f"{name!r}: shape {arr.shape} != {t.data.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name!r}: non-finite entries")
            t.data = arr.copy()


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_params(cfg: ModelConfig, cutoffs: CutoffConfig, seed: int = 0) -> ParameterStore:
    """Fresh parameters: fan-in-scaled uniform weights, zero biases,
    unit batch-norm scales, and identity running statistics."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    m0 = cfg.layout.mult(0)

    store.add("embed.ligand.W", _uniform(rng, LIGAND_FEATURE_DIM, (LIGAND_FEATURE_DIM, m0)))
    store.add("embed.ligand.b", np.zeros(m0))
    store.add("embed.residue.W", _uniform(rng, RESIDUE_FEATURE_DIM, (RESIDUE_FEATURE_DIM, m0)))
    store.add("embed.residue.b", np.zeros(m0))

    paths = cfg.active_paths()
    edge_in = cutoffs.rbf_k + 2 * m0
    hidden = cfg.edge_mlp_hidden
    for layer in range(cfg.layers):
        for kind in EDGE_KIND_ORDER:
            p = f"layer{layer}.{kind.value}"
            store.add(f"{p}.psi.W0", _uniform(rng, edge_in, (edge_in, hidden)))
            store.add(f"{p}.psi.b0", np.zeros(hidden))
            store.add(f"{p}.psi.W1", _uniform(rng, hidden, (hidden, hidden)))
            store.add(f"{p}.psi.b1", np.zeros(hidden))
            store.add(f"{p}.psi.W2", _uniform(rng, hidden, (hidden, len(paths))))
            store.add(f"{p}.psi.b2", np.zeros(len(paths)))
            for li, ls, lo in paths:
                mi, mo = cfg.layout.mult(li), cfg.layout.mult(lo)
                store.add(f"{p}.tp.{li}{ls}{lo}", _uniform(rng, mi, (mi, mo)))
            for l in cfg.layout.degrees():
                store.add(f"{p}.bn.gamma{l}", np.ones(cfg.layout.mult(l)))
            store.add(f"{p}.bn.beta0", np.zeros(m0))
            for l in cfg.layout.degrees():
                ml = cfg.layout.mult(l)
                store.add(f"{p}.proj.l{l}.W", _uniform(rng, 2 * ml, (2 * ml, ml)))
            store.add(f"{p}.proj.l0.b", np.zeros(m0))
            for l in cfg.layout.degrees():
                if l == 0:
                    continue
                store.add(f"{p}.gate.l{l}.W", _uniform(rng, m0, (m0, cfg.layout.mult(l))))
                store.add(f"{p}.gate.l{l}.b", np.zeros(cfg.layout.mult(l)))
            # running batch-norm statistics (inference mode)
            store.add(f"{p}.bn.run_mean0", np.zeros(m0), trainable=False)
            store.add(f"{p}.bn.run_var0", np.ones(m0), trainable=False)
            for l in cfg.layout.degrees():
                if l == 0:
                    continue
                store.add(f"{p}.bn.run_norm{l}", np.ones(cfg.layout.mult(l)), trainable=False)

    store.add("readout.fp.W", _uniform(rng, cfg.fingerprint_width,
                                       (cfg.fingerprint_width, cfg.fingerprint_embed)))
    store.add("readout.fp.b", np.zeros(cfg.fingerprint_embed))
    readout_in = 2 * m0 + cfg.fingerprint_embed
    store.add("readout.hidden.W", _uniform(rng, readout_in, (readout_in, cfg.readout_hidden)))
    store.add("readout.hidden.b", np.zeros(cfg.readout_hidden))
    store.add("readout.out.W", _uniform(rng, cfg.readout_hidden, (cfg.readout_hidden, 1)))
    store.add("readout.out.b", np.zeros(1))
    return store


def edge_weight_net(rbf, h_a0, h_b0, weights) -> Tensor:
    """Per-edge scalars, one per coupling path, from a two-hidden-layer
    perceptron over the edge embedding and both endpoint scalars.

    `weights` is the tuple (W0, b0, W1, b1, W2, b2).
    """
    W0, b0, W1, b1, W2, b2 = weights
    x = ad.concat([rbf, h_a0, h_b0], axis=1)
    h = ad.silu(ad.add(ad.matmul(x, W0), b0))
    h = ad.silu(ad.add(ad.matmul(h, W1), b1))
    return ad.add(ad.matmul(h, W2), b2)


def tensor_product_message(h_src: IrrepFeature, sh, path_gates,
                           path_weights: dict[tuple[int, int, int], Tensor],
                           paths, out_layout: IrrepLayout) -> IrrepFeature:
    """Couple source features with edge harmonics along the given paths.

    Each path (l_in, l_sh, l_out) runs four steps. Coupling: contract the
    Clebsch-Gordan tensor with the degree-l_sh harmonic block into a
    per-edge matrix K of shape (E, 2l_in+1, 2l_out+1). Gate: scale K by
    the path's per-edge gate. Contract: one batched matmul of the source
    block (E, m_in, 2l_in+1) with K. Mix: one broadcast matmul by the
    transposed (m_in, m_out) weight matrix, added into the l_out block.
    Only one path's per-edge intermediates are alive at a time; the
    generic matmul/mul adjoints give the backward pass.
    """
    n_e = h_src.n
    sh_data = sh if isinstance(sh, Tensor) else np.asarray(sh, dtype=np.float64)
    out: dict[int, Tensor] = {}
    for idx, (li, ls, lo) in enumerate(paths):
        key = (li, ls, lo)
        if key not in path_weights:
            raise ConfigError(f"missing weight matrix for path {key}")
        w = path_weights[key]
        mi, mo = h_src.layout.mult(li), out_layout.mult(lo)
        if w.shape != (mi, mo):
            raise ConfigError(f"path {key}: weight shape {w.shape} != ({mi}, {mo})")
        sh_block = sh_data[:, sh_slice(ls)] if not isinstance(sh_data, Tensor) \
            else ad.take(sh_data, (slice(None), sh_slice(ls)))
        coupling = ad.einsum("Mab,eb->eaM", clebsch_gordan(li, ls, lo), sh_block)
        gate = ad.reshape(ad.take(path_gates, (slice(None), slice(idx, idx + 1))), (n_e, 1, 1))
        coupled = ad.matmul(h_src.blocks[li], ad.mul(coupling, gate))     # (E, mi, 2lo+1)
        term = ad.matmul(ad.einsum("cd->dc", w), coupled)                  # (E, mo, 2lo+1)
        out[lo] = ad.add(out[lo], term) if lo in out else term
    for l in out_layout.degrees():
        if l not in out:
            out[l] = np.zeros((n_e, out_layout.mult(l), 2 * l + 1))
    return IrrepFeature(out_layout, out)


def aggregate_messages(messages: IrrepFeature, dst: np.ndarray, n_nodes: int) -> IrrepFeature:
    """Arithmetic mean of incoming messages per destination node; nodes
    without incoming edges get zero blocks. Summation order is the edge
    order, which graph construction pins to ascending (dst, src)."""
    return IrrepFeature(messages.layout, {
        l: ad.segment_mean(b, dst, n_nodes) for l, b in messages.blocks.items()
    })


def equivariant_batch_norm(feat: IrrepFeature, gamma: dict[int, Tensor], beta0,
                           run_mean0, run_var0, run_norms: dict[int, Tensor],
                           training: bool, node_graph: np.ndarray,
                           momentum: float = BN_MOMENTUM, eps: float = BN_EPS) -> IrrepFeature:
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
                _ema_per_graph(run_mean0, mean.data, momentum)
                _ema_per_graph(run_var0, var.data, momentum)
                denom = ad.gather_rows(ad.sqrt(ad.add(var, eps)), node_graph)
            else:
                centered = ad.add(x, -run_mean0.data)
                denom = ad.sqrt(ad.add(Tensor(run_var0.data), eps))
            normed = ad.div(centered, denom)
            y = ad.add(ad.mul(normed, gamma[0]), beta0)
            out[0] = ad.reshape(y, (block.shape[0], ml, 1))
        else:
            if training:
                sq = ad.tsum(ad.mul(block, block), axis=2)          # (n, ml)
                msq = ad.segment_mean(sq, node_graph, n_graphs)     # (graphs, ml)
                _ema_per_graph(run_norms[l], msq.data, momentum)
            else:
                msq = Tensor(run_norms[l].data)
            rms = ad.sqrt(ad.add(msq, eps))
            scale = ad.div(gamma[l], rms)                           # (graphs or 1, ml)
            if training:
                scale = ad.gather_rows(scale, node_graph)
            out[l] = ad.mul(block, ad.reshape(scale, (-1, ml, 1)))
    return IrrepFeature(feat.layout, out)


def _ema_per_graph(running: Tensor, stats: np.ndarray, momentum: float):
    """One running-statistic EMA step per row (graph) of `stats`, in order."""
    for row in stats:
        running.data = (1 - momentum) * running.data + momentum * row


def node_update(h: IrrepFeature, incoming: IrrepFeature,
                proj: dict[int, Tensor], proj_bias0) -> IrrepFeature:
    """Concatenate incoming blocks onto the current ones channel-wise and
    project back to the layout width, mixing only within equal l."""
    if h.layout != incoming.layout:
        raise ConfigError("node_update needs matching layouts")
    out: dict[int, Tensor] = {}
    for l in h.layout.degrees():
        cat = ad.concat([h.blocks[l], incoming.blocks[l]], axis=1)  # (n, 2ml, 2l+1)
        mixed = ad.einsum("ecm,cd->edm", cat, proj[l])
        if l == 0:
            mixed = ad.add(mixed, ad.reshape(proj_bias0, (1, h.layout.mult(0), 1)))
        out[l] = mixed
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


def fingerprint_rows(fp) -> np.ndarray:
    """Fingerprint bits as float rows (B, width): one `Fingerprint` or a
    1-D array is one row; a sequence of B `Fingerprint`s or a 2-D array is
    B rows."""
    if isinstance(fp, Fingerprint):
        return fp.bits.astype(np.float64).reshape(1, -1)
    if isinstance(fp, np.ndarray):
        return fp.astype(np.float64).reshape(-1, fp.shape[-1])
    return np.stack([f.bits for f in fp]).astype(np.float64)


def readout(pooled: Tensor, fp, weights) -> Tensor:
    """Project fingerprint bits to a dense vector, join with the pooled
    graph summary, and regress to one scalar through a two-layer head.

    `pooled` is (B, P) with B fingerprint rows (see `fingerprint_rows`)
    and gives B predictions; a 1-D `pooled` with one fingerprint gives a
    scalar. The fingerprint projection is one (B, width) matmul."""
    Wfp, bfp, W1, b1, W2, b2 = weights
    bits = fingerprint_rows(fp)
    if bits.shape[1] != Wfp.shape[0]:
        raise ConfigError(f"fingerprint width {bits.shape[1]} != configured {Wfp.shape[0]}")
    fp_dense = ad.add(ad.matmul(Tensor(bits), Wfp), bfp)
    x = ad.concat([ad.reshape(pooled, (-1, pooled.shape[-1])), fp_dense], axis=1)
    hidden = ad.silu(ad.add(ad.matmul(x, W1), b1))
    out = ad.add(ad.matmul(hidden, W2), b2)
    return ad.reshape(out, pooled.shape[:-1])


def _edge_tensors(pack: GraphPack):
    """Per-kind constant edge arrays: indices, RBF embedding, harmonics."""
    out = {}
    for kind, es in pack.edges.items():
        if len(es) == 0:
            out[kind] = (es.a, es.b, es.rbf, np.zeros((0, 9)))
            continue
        unit = es.r_vec / np.where(es.dist[:, None] > 1e-10, es.dist[:, None], 1.0)
        out[kind] = (es.a, es.b, es.rbf, spherical_harmonics_batch(unit))
    return out


class ReceptorCache:
    """The receptor-only pp work of inference forwards, for one receptor.

    The entry is keyed on the bytes of the residue features and residue
    positions, and on the parameter store that filled it; a graph of
    another receptor replaces it. Per layer it holds the pp edge gates,
    which depend only on the RBF and the layer-0 residue embeddings, and
    the residue source rows and per-residue pp message sums of the first
    forward on the receptor (the reference). `recomputed` maps each layer
    to the number of pp edges whose messages the last forward computed.
    """

    def __init__(self):
        self._key = None
        self._params = None
        self.gates: dict[int, np.ndarray] = {}
        self.ref_rows: dict[int, dict[int, np.ndarray]] = {}
        self.ref_sums: dict[int, dict[int, np.ndarray]] = {}
        self.recomputed: dict[int, int] = {}

    def select(self, graph: HeteroGraph, params: ParameterStore):
        """Keep the entry if `graph` holds its receptor, else empty it."""
        key = (graph.residue_features.tobytes(), graph.positions[graph.n_ligand:].tobytes())
        if key != self._key or params is not self._params:
            self._key, self._params = key, params
            self.gates, self.ref_rows, self.ref_sums = {}, {}, {}
        self.recomputed = {}


def _cached_pp_aggregate(cache: ReceptorCache, layer: int, psi_weights, tp_weights, paths,
                         h: IrrepFeature, h0: np.ndarray, edges, n_ligand: int) -> IrrepFeature:
    """The mean pp aggregate of one inference layer, from the cache.

    With its gate and harmonics fixed, a pp edge's message is linear in
    its source rows, so the sums of the current rows are the reference
    sums plus the messages of `rows - ref_rows` over the edges leaving
    residues whose rows differ. A receptor's first forward runs the same
    rule from an all-zero reference, which it then replaces. Gates and
    messages run in blocks of PP_EDGE_BLOCK edges and are summed with
    `np.add.at` in edge order. Ligand rows get zero, as no pp edge ends
    on them.
    """
    layout = h.layout
    a_idx, b_idx, rbf, sh = edges
    dst, src = a_idx - n_ligand, b_idx - n_ligand
    rows = {l: h.blocks[l].data[n_ligand:] for l in layout.degrees()}
    n_res, n_edges = len(rows[0]), len(a_idx)

    if layer not in cache.gates:
        gates = np.empty((n_edges, len(paths)))
        for s in range(0, n_edges, PP_EDGE_BLOCK):
            e = slice(s, s + PP_EDGE_BLOCK)
            gates[e] = edge_weight_net(rbf[e], h0[a_idx[e]], h0[b_idx[e]], psi_weights).data
        cache.gates[layer] = gates

    zeros = {l: np.zeros_like(r) for l, r in rows.items()}
    ref_rows = cache.ref_rows.get(layer, zeros)
    sums = {l: s.copy() for l, s in cache.ref_sums.get(layer, zeros).items()}
    diff = {l: r - ref_rows[l] for l, r in rows.items()}
    differs = np.zeros(n_res, dtype=bool)
    for d in diff.values():
        differs |= (d != 0).reshape(n_res, -1).any(axis=1)
    changed = np.flatnonzero(differs[src])
    for s in range(0, len(changed), PP_EDGE_BLOCK):
        block = changed[s:s + PP_EDGE_BLOCK]
        h_src = IrrepFeature(layout, {l: d[src[block]] for l, d in diff.items()})
        msg = tensor_product_message(h_src, sh[block], cache.gates[layer][block],
                                     tp_weights, paths, layout)
        for l in layout.degrees():
            np.add.at(sums[l], dst[block], msg.blocks[l].data)
    cache.recomputed[layer] = len(changed)
    if layer not in cache.ref_rows:
        cache.ref_rows[layer] = {l: r.copy() for l, r in rows.items()}
        cache.ref_sums[layer] = sums

    degree = np.maximum(np.bincount(dst, minlength=n_res).astype(np.float64), 1.0)
    out = {}
    for l, s in sums.items():
        out[l] = np.zeros((n_ligand + n_res,) + s.shape[1:])
        out[l][n_ligand:] = s / degree.reshape(-1, 1, 1)
    return IrrepFeature(layout, out)


def forward(graph: HeteroGraph | GraphPack, fp, params: ParameterStore,
            cfg: ModelConfig, training: bool = False, return_features: bool = False,
            edge_override: dict | None = None, cache: ReceptorCache | None = None):
    """Scalar predictions for a pack of complex graphs, one per graph.

    `graph` is a `GraphPack` with one fingerprint row per graph in `fp`
    (see `fingerprint_rows`), giving a (B,) prediction; a plain
    `HeteroGraph` is a pack of one and gives a scalar. Each round
    processes edge kinds cc, pp, pc in that fixed order with kind-specific
    parameters: edge gates, tensor-product message, mean aggregation,
    equivariant batch norm (per-graph statistics in training),
    concat-project node update, gated activation. Scalars are then pooled
    per graph and node kind and regressed together with the fingerprint.

    `edge_override` replaces the per-kind (rbf, sh) constants with caller
    tensors (used to differentiate through geometric inputs in tests).
    `cache` (inference only) takes the pp aggregates of a pack of one from
    a `ReceptorCache`, which reuses the receptor's work across ligands and
    agrees with the uncached forward to rounding; a larger pack runs
    uncached.
    """
    pack = graph if isinstance(graph, GraphPack) else pack_graphs([graph])
    if cache is not None:
        if training or edge_override:
            raise ConfigError("the receptor cache serves inference forwards only")
        if pack.n_graphs == 1:
            cache.select(pack.graphs[0], params)
        else:
            cache = None
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
    features: list[dict] = []

    for layer in range(cfg.layers):
        for kind in EDGE_KIND_ORDER:
            prefix = f"layer{layer}.{kind.value}"
            a_idx, b_idx, rbf, sh = edge_data[kind]
            if edge_override and kind in edge_override:
                rbf, sh = edge_override[kind]

            psi_weights = tuple(params[f"{prefix}.psi.{w}"]
                                for w in ("W0", "b0", "W1", "b1", "W2", "b2"))
            tp_weights = {p: params[f"{prefix}.tp.{p[0]}{p[1]}{p[2]}"] for p in paths}
            if cache is not None and kind is EdgeKind.PP:
                agg = _cached_pp_aggregate(cache, layer, psi_weights, tp_weights, paths, h,
                                           h0_scalars.data, edge_data[kind],
                                           pack.graphs[0].n_ligand)
            else:
                rbf_t = rbf if isinstance(rbf, Tensor) else Tensor(rbf)
                psi = edge_weight_net(rbf_t, ad.gather_rows(h0_scalars, a_idx),
                                      ad.gather_rows(h0_scalars, b_idx), psi_weights)
                h_src = IrrepFeature(layout, {
                    l: ad.gather_rows(h.blocks[l], b_idx) for l in layout.degrees()
                })
                msg = tensor_product_message(h_src, sh, psi, tp_weights, paths, layout)
                agg = aggregate_messages(msg, a_idx, n)
            bn = equivariant_batch_norm(
                agg,
                {l: params[f"{prefix}.bn.gamma{l}"] for l in layout.degrees()},
                params[f"{prefix}.bn.beta0"],
                params[f"{prefix}.bn.run_mean0"],
                params[f"{prefix}.bn.run_var0"],
                {l: params[f"{prefix}.bn.run_norm{l}"] for l in layout.degrees() if l > 0},
                training=training, node_graph=pack.node_graph,
            )
            h = node_update(
                h, bn,
                {l: params[f"{prefix}.proj.l{l}.W"] for l in layout.degrees()},
                params[f"{prefix}.proj.l0.b"],
            )
            h = gated_activation(h, {
                l: (params[f"{prefix}.gate.l{l}.W"], params[f"{prefix}.gate.l{l}.b"])
                for l in layout.degrees() if l > 0
            })
            for l in layout.degrees():
                if not np.all(np.isfinite(h.blocks[l].data)):
                    raise NumericalError(
                        f"non-finite features after layer {layer} kind {kind.value} (l={l})"
                    )
            if return_features:
                features.append({"layer": layer, "kind": kind.value, "feature": h.detach()})

    pooled = invariant_pool(h, pack.node_graph, pack.kinds, pack.n_graphs)
    pred = readout(pooled, fp, tuple(
        params[f"readout.{w}"] for w in ("fp.W", "fp.b", "hidden.W", "hidden.b", "out.W", "out.b")
    ))
    if pack is not graph:
        pred = ad.reshape(pred, ())
    if return_features:
        return pred, features
    return pred


@dataclass
class Model:
    """Bundled config + parameters."""
    cfg: ModelConfig
    cutoffs: CutoffConfig
    params: ParameterStore
