import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d import equinet
from cpi3d.autodiff import Tape, Tensor
from cpi3d.equinet import (
    BN_MOMENTUM,
    IrrepFeature,
    IrrepLayout,
    ModelConfig,
    ReceptorCache,
    aggregate_messages,
    edge_weight_net,
    equivariant_batch_norm,
    forward,
    gated_activation,
    init_params,
    invariant_pool,
    node_update,
    readout,
    tensor_product_message,
)
from cpi3d.chemio import Atom, LigandMolecule
from cpi3d.errors import ConfigError
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import CutoffConfig, EdgeKind, build_pair_graph, pack_graphs
from cpi3d.so3 import allowed_paths, random_rotation, sh_slice, spherical_harmonics_batch
from cpi3d.synthetic import random_complex, random_ligand
from cpi3d.train import grad

from conftest import forward_one, lattice_receptor, transform_ligand, transform_protein
from oracles import P_YZX, block_gates_oracle, tp_message_oracle, wigner_d

SMALL_CFG = ModelConfig(layers=2, layout=IrrepLayout((6, 3, 2)),
                        edge_mlp_hidden=12, readout_hidden=8,
                        fingerprint_width=64, fingerprint_embed=8)
SMALL_CUT = CutoffConfig(rbf_k=8)


def random_feature(rng, layout, n):
    return IrrepFeature(layout, {
        l: rng.normal(size=(n, layout.mult(l), 2 * l + 1)) for l in layout.degrees()
    })


def rotate_feature(feat, R):
    return IrrepFeature(feat.layout, {
        l: np.einsum("MN,ncN->ncM", wigner_d(R, l), feat.blocks[l].data)
        for l in feat.layout.degrees()
    })


def feature_allclose(a, b, atol=1e-10):
    for l in a.layout.degrees():
        np.testing.assert_allclose(a.blocks[l].data, b.blocks[l].data, atol=atol)


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------- messages

def test_tp_scalar_path_is_scalar_multiplication(rng):
    layout = IrrepLayout((2, 0, 0))
    h = random_feature(rng, layout, 4)
    sh = spherical_harmonics_batch(unit_rows(rng, 4))
    gates = Tensor(rng.normal(size=(4, 1)))
    w = Tensor(rng.normal(size=(2, 2)))
    out = tensor_product_message(h, sh, gates, {(0, 0, 0): w}, ((0, 0, 0),), layout)
    y00 = 0.28209479177387814
    want = np.einsum("ec,cd->ed", h.blocks[0].data[:, :, 0], w.data) \
        * gates.data * y00
    np.testing.assert_allclose(out.blocks[0].data[:, :, 0], want, atol=1e-12)


def test_tp_11_to_0_is_scaled_dot(rng):
    lin = IrrepLayout((0, 1, 0))
    lout = IrrepLayout((1, 0, 0))
    h = random_feature(rng, lin, 6)
    sh = spherical_harmonics_batch(unit_rows(rng, 6))
    out = tensor_product_message(
        h, sh, Tensor(np.ones((6, 1))), {(1, 1, 0): Tensor(np.ones((1, 1)))},
        ((1, 1, 0),), lout,
    )
    dots = np.einsum("em,em->e", h.blocks[1].data[:, 0, :], sh[:, sh_slice(1)])
    np.testing.assert_allclose(out.blocks[0].data[:, 0, 0],
                               dots / math.sqrt(3.0), atol=1e-12)


def test_tp_11_to_1_is_scaled_cross(rng):
    layout = IrrepLayout((0, 1, 0))
    h = random_feature(rng, layout, 20)
    units = unit_rows(rng, 20)
    sh = spherical_harmonics_batch(units)
    out = tensor_product_message(
        h, sh, Tensor(np.ones((20, 1))), {(1, 1, 1): Tensor(np.ones((1, 1)))},
        ((1, 1, 1),), layout,
    )
    got = out.blocks[1].data[:, 0, :]
    # analytic cross product mapped into component order (y, z, x)
    h_xyz = h.blocks[1].data[:, 0, :] @ P_YZX      # rows back to cartesian
    sh_xyz = sh[:, sh_slice(1)] @ P_YZX
    cross = np.cross(h_xyz, sh_xyz) @ P_YZX.T
    ratio = got[np.abs(cross) > 1e-8] / cross[np.abs(cross) > 1e-8]
    np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)


def test_tp_rejects_bad_weight_shape(rng):
    layout = IrrepLayout((2, 1, 0))
    h = random_feature(rng, layout, 3)
    sh = spherical_harmonics_batch(unit_rows(rng, 3))
    with pytest.raises(ConfigError):
        tensor_product_message(h, sh, Tensor(np.ones((3, 1))),
                               {(0, 0, 0): Tensor(np.ones((3, 2)))},
                               ((0, 0, 0),), layout)


def test_tp_equivariance(rng):
    layout = IrrepLayout((3, 2, 1))
    paths = tuple(p for p in ModelConfig(layout=layout).active_paths())
    weights = {p: Tensor(rng.normal(size=(layout.mult(p[0]), layout.mult(p[2]))))
               for p in paths}
    gates = Tensor(rng.normal(size=(10, len(paths))))
    h = random_feature(rng, layout, 10)
    units = unit_rows(rng, 10)
    R = random_rotation(rng)
    out = tensor_product_message(h, spherical_harmonics_batch(units), gates,
                                 weights, paths, layout)
    out_rot = tensor_product_message(
        rotate_feature(h, R), spherical_harmonics_batch(units @ R.T), gates,
        weights, paths, layout,
    )
    feature_allclose(rotate_feature(out, R), out_rot, atol=1e-10)


def _tp_inputs(rng, layout, paths, n_e, requires_grad=False):
    h = IrrepFeature(layout, {
        l: Tensor(rng.normal(size=(n_e, layout.mult(l), 2 * l + 1)), requires_grad=requires_grad)
        for l in layout.degrees()
    })
    sh = spherical_harmonics_batch(unit_rows(rng, n_e))
    gates = Tensor(rng.normal(size=(n_e, len(paths))), requires_grad=requires_grad)
    weights = {p: Tensor(rng.normal(size=(layout.mult(p[0]), layout.mult(p[2]))),
                         requires_grad=requires_grad) for p in paths}
    return h, sh, gates, weights


def _paths_for(layout, parity_even_only):
    return tuple(p for p in allowed_paths(2, parity_even_only=parity_even_only)
                 if layout.mult(p[0]) > 0 and layout.mult(p[2]) > 0)


@pytest.mark.parametrize("muls,parity_even_only,subset,n_e", [
    ((32, 8, 4), True, None, 40),     # the model's 11 paths at the default layout
    ((32, 8, 4), False, None, 40),    # every triangle-rule path
    ((5, 0, 3), False, None, 40),     # no l=1 channels, so no path touches l=1
    # a subset of paths with the matching gate columns gives the same
    # l_out blocks, bit for bit, as the full call: the final stage's
    # l_out = 0 paths, and the pocket's l_out > 0 paths
    ((32, 8, 4), True, (0,), 40),
    ((32, 8, 4), True, (1, 2), 40),
    # the l_in = 0, l_out = 0 and general branches at their edge shapes:
    # one channel per degree, and a single edge
    ((1, 1, 1), True, None, 40),
    ((1, 1, 1), False, None, 1),
    ((32, 8, 4), True, None, 1),
], ids=["muls0-True", "muls1-False", "muls2-False", "l_out-0", "l_out-1-2",
        "unit-muls", "unit-muls-one-edge", "one-edge"])
def test_tp_matches_per_path_einsum_oracle(rng, muls, parity_even_only, subset, n_e):
    layout = IrrepLayout(muls)
    paths = _paths_for(layout, parity_even_only)
    if parity_even_only:
        assert len(paths) == 11
    h, sh, gates, weights = _tp_inputs(rng, layout, paths, n_e)
    out = tensor_product_message(h, sh, gates, weights, paths, layout)
    want = tp_message_oracle({l: b.data for l, b in h.blocks.items()}, sh, gates.data,
                             {p: w.data for p, w in weights.items()}, paths, muls)
    assert set(out.blocks) == set(want)
    for l, block in want.items():
        assert np.max(np.abs(out.blocks[l].data - block)) <= 1e-12 * np.max(np.abs(block))
    if subset is not None:
        cols = [i for i, p in enumerate(paths) if p[2] in subset]
        part = tensor_product_message(
            h, sh, ad.take(gates, (slice(None), np.asarray(cols))), weights,
            tuple(paths[i] for i in cols),
            IrrepLayout(tuple(m if l in subset else 0 for l, m in enumerate(muls))))
        assert set(part.blocks) == set(subset)
        for l in subset:
            np.testing.assert_array_equal(part.blocks[l].data, out.blocks[l].data)


def test_tp_skips_untracked_all_zero_sources(rng):
    # layer 0's l > 0 blocks are zeros off the tape: skipping their paths
    # leaves the message unchanged, and a zero block on the tape still
    # receives its adjoint
    layout = IrrepLayout((4, 3, 2))
    paths = _paths_for(layout, parity_even_only=True)
    h, sh, gates, weights = _tp_inputs(rng, layout, paths, 12)
    zeros = IrrepFeature(layout, {0: h.blocks[0], 1: np.zeros((12, 3, 3)),
                                  2: np.zeros((12, 2, 5))})
    out = tensor_product_message(zeros, sh, gates, weights, paths, layout)
    want = tp_message_oracle({l: b.data for l, b in zeros.blocks.items()}, sh, gates.data,
                             {p: w.data for p, w in weights.items()}, paths, layout.muls)
    for l, block in want.items():
        assert np.max(np.abs(out.blocks[l].data - block)) <= 1e-12 * np.max(np.abs(block))
    tracked = Tensor(np.zeros((12, 3, 3)), requires_grad=True)
    with Tape() as tape:
        msg = tensor_product_message(IrrepFeature(layout, {**zeros.blocks, 1: tracked}), sh,
                                     gates, weights, paths, layout)
        loss = ad.tsum(msg.blocks[0])
    (g,) = tape.gradient(loss, [tracked])
    assert np.abs(g).max() > 0


def test_tp_message_is_linear_in_source_rows(rng):
    # the receptor cache adds msg(new - ref) to the reference sums
    layout = IrrepLayout((32, 8, 4))
    paths = _paths_for(layout, parity_even_only=True)
    assert len(paths) == 11
    a, sh, gates, weights = _tp_inputs(rng, layout, paths, 40)
    b, _, _, _ = _tp_inputs(rng, layout, paths, 40)

    def msg(h):
        return tensor_product_message(h, sh, gates, weights, paths, layout).blocks

    diff = IrrepFeature(layout, {l: a.blocks[l].data - b.blocks[l].data
                                 for l in layout.degrees()})
    msg_a, msg_b, msg_diff = msg(a), msg(b), msg(diff)
    for l in layout.degrees():
        want = msg_a[l].data - msg_b[l].data
        assert np.max(np.abs(msg_diff[l].data - want)) <= 1e-12 * np.max(np.abs(want))


def _assert_gradients_match_finite_differences(loss_fn, sources, step=1e-5):
    """Tape adjoints of `loss_fn()` against central differences, entry by
    entry, for every source tensor."""
    with Tape() as tape:
        loss = loss_fn()
    grads = tape.gradient(loss, sources)
    for src, got in zip(sources, grads):
        assert got.shape == src.shape
        flat = src.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(loss_fn().data)
            flat[i] = orig - step
            fm = float(loss_fn().data)
            flat[i] = orig
            want = (fp - fm) / (2 * step)
            assert abs(got.reshape(-1)[i] - want) <= 1e-6 * max(1.0, abs(want))


def test_tp_gradients_match_finite_differences(rng):
    # every triangle-rule path, also with one channel per degree (each
    # branch at m = 1) and with a single edge (E = 1)
    for muls, n_e in (((3, 2, 1), 5), ((1, 1, 1), 5), ((3, 2, 1), 1)):
        layout = IrrepLayout(muls)
        paths = _paths_for(layout, parity_even_only=False)
        h, sh_arr, gates, weights = _tp_inputs(rng, layout, paths, n_e, requires_grad=True)
        sh = Tensor(sh_arr, requires_grad=True)   # the edge_override route

        def loss_fn():
            out = tensor_product_message(h, sh, gates, weights, paths, layout)
            return functools.reduce(ad.add, (ad.tsum(ad.mul(b, b))
                                             for b in out.blocks.values()))

        _assert_gradients_match_finite_differences(
            loss_fn, [*h.blocks.values(), gates, *weights.values(), sh])


# ---------------------------------------------------------------- edge net

def _psi_weights(rng, in_dim, hidden, n_out, zero=False):
    def mk(shape, fan):
        if zero:
            return Tensor(np.zeros(shape), requires_grad=True)
        return Tensor(rng.uniform(-1, 1, size=shape) / math.sqrt(fan), requires_grad=True)
    return (mk((in_dim, hidden), in_dim), mk((hidden,), 1),
            mk((hidden, hidden), hidden), mk((hidden,), 1),
            mk((hidden, n_out), hidden), mk((n_out,), 1))


def test_edge_net_zero_params_zero_output(rng):
    w = _psi_weights(rng, 10, 6, 4, zero=True)
    out = edge_weight_net(Tensor(rng.normal(size=(5, 4))),
                          Tensor(rng.normal(size=(5, 3))),
                          Tensor(rng.normal(size=(5, 3))), w)
    np.testing.assert_array_equal(out.data, 0.0)


def test_edge_net_pure(rng):
    w = _psi_weights(rng, 10, 6, 4)
    args = (Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 3))),
            Tensor(rng.normal(size=(5, 3))))
    np.testing.assert_array_equal(edge_weight_net(*args, w).data,
                                  edge_weight_net(*args, w).data)


def test_edge_net_gradients_match_finite_differences(rng):
    weights = _psi_weights(rng, 8, 5, 3)
    rbf = rng.normal(size=(4, 2))
    ha = rng.normal(size=(4, 3))
    hb = rng.normal(size=(4, 3))

    def loss_fn():
        out = edge_weight_net(Tensor(rbf), Tensor(ha), Tensor(hb), weights)
        return ad.tsum(ad.mul(out, out))

    with Tape() as tape:
        loss = loss_fn()
    grads = tape.gradient(loss, list(weights))

    h = 1e-5
    for w, got in zip(weights, grads):
        flat = w.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(loss_fn().data)
            flat[i] = orig - h
            fm = float(loss_fn().data)
            flat[i] = orig
            want = (fp - fm) / (2 * h)
            gi = got.reshape(-1)[i]
            assert abs(gi - want) <= 1e-4 * max(1.0, abs(want))


# ------------------------------------------------------------- aggregation

def _stage_weights(layout):
    """Every parity-even path of `layout` with seeded weight matrices."""
    paths = _paths_for(layout, parity_even_only=True)
    w_rng = np.random.default_rng(7)
    return paths, {p: Tensor(w_rng.normal(size=(layout.mult(p[0]), layout.mult(p[2]))))
                   for p in paths}


def _stage(rows, src, dst, n_nodes, sums=None, edges=None):
    """`aggregate_messages` with `_stage_weights`, unit gates and +z
    harmonics on every edge; `sums` default to zero."""
    layout = rows.layout
    paths, weights = _stage_weights(layout)
    sh = spherical_harmonics_batch(np.tile([0.0, 0.0, 1.0], (len(src), 1)))
    if sums is None:
        sums = {l: np.zeros((n_nodes, layout.mult(l), 2 * l + 1)) for l in layout.degrees()}
    edges = np.arange(len(src)) if edges is None else edges
    return aggregate_messages(rows, edges, np.asarray(src), np.asarray(dst), sh,
                              lambda e: np.ones((len(e), len(paths))), weights, paths, sums)


def test_aggregate_single_and_opposite(rng):
    layout = IrrepLayout((2, 1, 1))
    rows = random_feature(rng, layout, 1)
    out = _stage(rows, [0], [0], 1)
    paths, weights = _stage_weights(layout)
    msg = tensor_product_message(rows, spherical_harmonics_batch(np.array([[0.0, 0.0, 1.0]])),
                                 np.ones((1, len(paths))), weights, paths, layout)
    for l in layout.degrees():
        np.testing.assert_array_equal(out.blocks[l].data, msg.blocks[l].data)

    m = random_feature(rng, layout, 1)
    both = IrrepFeature(layout, {
        l: np.concatenate([m.blocks[l].data, -m.blocks[l].data]) for l in layout.degrees()
    })
    out = _stage(both, [0, 1], [0, 0], 1)
    for l in layout.degrees():
        np.testing.assert_allclose(out.blocks[l].data, 0.0, atol=1e-16)


def test_aggregate_empty_segment_is_zero(rng):
    layout = IrrepLayout((2, 0, 0))
    rows = random_feature(rng, layout, 3)
    out = _stage(rows, [0, 1, 2], [0, 0, 2], 4)
    np.testing.assert_array_equal(out.blocks[0].data[1], 0.0)
    np.testing.assert_array_equal(out.blocks[0].data[3], 0.0)
    # nodes without an incoming edge keep their starting sums
    start = rng.normal(size=(4, 2, 1))
    out = _stage(rows, [0, 1, 2], [0, 0, 2], 4, sums={0: start})
    np.testing.assert_array_equal(out.blocks[0].data[[1, 3]], start[[1, 3]])
    # and with no edges at all, every node does
    out = _stage(rows, [0, 1, 2], [0, 0, 2], 4, sums={0: start}, edges=np.arange(0))
    np.testing.assert_array_equal(out.blocks[0].data, start)


def test_aggregate_mean_within_bounds(rng, monkeypatch):
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 5)
    layout = IrrepLayout((3, 2, 1))
    rows = random_feature(rng, layout, 12)
    dst = np.asarray(rng.integers(0, 3, size=12))
    sums = _stage(rows, np.arange(12), dst, 3)
    msgs = _stage(rows, np.arange(12), np.arange(12), 12)
    degree = np.maximum(np.bincount(dst, minlength=3), 1).reshape(-1, 1, 1)
    for l in layout.degrees():
        mean = sums.blocks[l].data / degree
        for node in range(3):
            per_edge = msgs.blocks[l].data[dst == node]
            if len(per_edge) == 0:
                continue
            assert np.all(mean[node] <= per_edge.max(axis=0) + 1e-12)
            assert np.all(mean[node] >= per_edge.min(axis=0) - 1e-12)


def _block_adjoint_run(monkeypatch, plain: bool, degrees, zero_l1: bool, stored: bool):
    """Loss and gradients, as bytes, of one message stage in 16-edge blocks
    with every block input tracked: row blocks l = 0, 1, 2 (l = 1 untracked
    and all zero with `zero_l1`), path weights, harmonics, both scalar
    inputs, edge-network weights and distances (or stored gates). `plain`
    runs each block's `fn` on the outer tape, the oracle for its adjoint."""
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 16)
    if plain:
        monkeypatch.setattr(ad, "custom_adjoint", lambda fn, adjoint, *inputs: fn(*inputs))
    rng = np.random.default_rng(31)
    layout, n = IrrepLayout((4, 2, 2)), 7
    dst, src = np.nonzero(~np.eye(n, dtype=bool))       # 42 edges by (dst, src)
    edges = np.flatnonzero(rng.random(len(src)) < 0.8)
    paths, _ = _stage_weights(layout)
    rows = {l: Tensor(rng.normal(size=(n, layout.mult(l), 2 * l + 1)), requires_grad=True)
            for l in layout.degrees()}
    if zero_l1:
        rows[1] = Tensor(np.zeros(rows[1].shape))
    weights = {p: Tensor(rng.normal(size=(layout.mult(p[0]), layout.mult(p[2]))),
                         requires_grad=True) for p in paths}
    sh = Tensor(spherical_harmonics_batch(unit_rows(rng, len(src))), requires_grad=True)
    dist = Tensor(rng.uniform(1.0, 4.0, size=len(src)), requires_grad=True)
    scalars = Tensor(rng.normal(size=(n, layout.mult(0))), requires_grad=True)
    psi = _psi_weights(rng, SMALL_CUT.rbf_k + 2 * layout.mult(0), 5, len(paths))
    table = rng.normal(size=(len(src), len(paths)))
    gates = table.__getitem__ if stored else (dist, SMALL_CUT, scalars, psi)
    sources = [*rows.values(), *weights.values(), sh, scalars, *psi, dist]
    with Tape() as tape:
        sums = aggregate_messages(IrrepFeature(layout, rows), edges, src, dst, sh, gates, weights,
                                  paths, {l: np.zeros(rows[l].shape) for l in degrees})
        loss = ad.tsum(ad.mul(scalars, scalars))
        for l in degrees:
            loss = ad.add(loss, ad.tsum(ad.mul(sums.blocks[l], rng.normal(size=rows[l].shape))))
    return [loss.data.tobytes()] + [g.tobytes() for g in tape.gradient(loss, sources)]


@pytest.mark.parametrize("degrees,zero_l1,stored", [
    ((0, 1, 2), False, False),
    ((0,), False, False),          # the l_out = 0 paths: a take of their gate columns
    ((0, 1, 2), True, False),      # layer 0's untracked all-zero l > 0 rows
    ((0, 2), True, True),          # stored gates, a subset and a zero block
], ids=["all", "path-subset", "zero-block", "stored-gates"])
def test_block_adjoint_equals_the_plain_call_bit_for_bit(monkeypatch, degrees, zero_l1, stored):
    """The written-out adjoint of each message block gives the loss and
    the gradients of the block's ops run on the outer tape, bit for bit."""
    with monkeypatch.context() as m:
        got = _block_adjoint_run(m, False, degrees, zero_l1, stored)
    with monkeypatch.context() as m:
        want = _block_adjoint_run(m, True, degrees, zero_l1, stored)
    assert got == want
    # the l = 0 rows, the harmonics and (through the edge network) the distances get adjoints
    row0, sh, dist = (np.frombuffer(got[i]) for i in (1, -9, -1))
    assert row0.any() and sh.any() and dist.any() != stored


def test_backward_calls_neither_the_edge_network_nor_the_message_kernel(monkeypatch):
    """The block adjoint recomputes in plain numpy: `tape.gradient` of a
    training forward calls `edge_weight_net` and `tensor_product_message`
    zero times."""
    monkeypatch.setattr(equinet, "EDGE_BLOCK", 16)
    calls = {"edge_weight_net": 0, "tensor_product_message": 0}
    for name in calls:
        def counted(*args, fn=getattr(equinet, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(equinet, name, counted)
    _, graph, fp = _toy(np.random.default_rng(2))
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    with Tape() as tape:
        pred = forward_one(graph, fp, params, SMALL_CFG, training=True)
    assert calls["edge_weight_net"] > 2 * 3 and calls["tensor_product_message"] > 2 * 3
    calls.update(dict.fromkeys(calls, 0))
    grads = tape.gradient(pred, params.tensors(params.trainable_names()))
    assert calls == {"edge_weight_net": 0, "tensor_product_message": 0}
    assert all(np.isfinite(g).all() for g in grads)


# ---------------------------------------------------------------- batchnorm

def _bn_args(layout, gamma_value=1.0):
    gamma = {l: Tensor(np.full(layout.mult(l), gamma_value)) for l in layout.degrees()}
    beta0 = Tensor(np.zeros(layout.mult(0)))
    rm = Tensor(np.zeros(layout.mult(0)))
    rv = Tensor(np.ones(layout.mult(0)))
    rn = {l: Tensor(np.ones(layout.mult(l))) for l in layout.degrees() if l > 0}
    return gamma, beta0, rm, rv, rn


def test_bn_equal_norms_normalize_to_one(rng):
    layout = IrrepLayout((1, 2, 0))
    norm = 2.0
    vecs = rng.normal(size=(6, 2, 3))
    vecs *= norm / np.linalg.norm(vecs, axis=2, keepdims=True)
    feat = IrrepFeature(layout, {0: rng.normal(size=(6, 1, 1)), 1: vecs})
    gamma, beta0, rm, rv, rn = _bn_args(layout)
    out = equivariant_batch_norm(feat, gamma, beta0, rm, rv, rn, training=True,
                                 node_graph=np.zeros(6, dtype=np.intp))
    norms = np.linalg.norm(out.blocks[1].data, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_bn_zero_variance_returns_beta(rng):
    layout = IrrepLayout((3, 0, 0))
    feat = IrrepFeature(layout, {0: np.full((5, 3, 1), 7.0)})
    gamma, _, rm, rv, rn = _bn_args(layout)
    beta0 = Tensor(np.array([1.0, -2.0, 0.5]))
    out = equivariant_batch_norm(feat, gamma, beta0, rm, rv, rn, training=True,
                                 node_graph=np.zeros(5, dtype=np.intp))
    np.testing.assert_array_equal(out.blocks[0].data[:, :, 0],
                                  np.tile(beta0.data, (5, 1)))


def test_bn_commutes_with_rotation(rng):
    layout = IrrepLayout((2, 3, 1))
    feat = random_feature(rng, layout, 8)
    R = random_rotation(rng)
    args_a = _bn_args(layout, gamma_value=1.7)
    args_b = _bn_args(layout, gamma_value=1.7)
    one_graph = np.zeros(8, dtype=np.intp)
    out_then_rot = rotate_feature(
        equivariant_batch_norm(feat, *args_a, training=True, node_graph=one_graph), R)
    rot_then_out = equivariant_batch_norm(
        rotate_feature(feat, R), *args_b, training=True, node_graph=one_graph)
    feature_allclose(out_then_rot, rot_then_out, atol=1e-10)


def test_bn_running_stats_used_in_eval(rng):
    layout = IrrepLayout((2, 0, 0))
    feat = random_feature(rng, layout, 4)
    gamma, beta0, rm, rv, rn = _bn_args(layout)
    rm.data = np.array([1.0, -1.0])
    rv.data = np.array([4.0, 0.25])
    out = equivariant_batch_norm(feat, gamma, beta0, rm, rv, rn, training=False,
                                 node_graph=np.zeros(4, dtype=np.intp))
    x = feat.blocks[0].data[:, :, 0]
    want = (x - rm.data) / np.sqrt(rv.data + 1e-5)
    np.testing.assert_allclose(out.blocks[0].data[:, :, 0], want, atol=1e-12)
    # eval mode must not touch the running stats
    np.testing.assert_array_equal(rm.data, [1.0, -1.0])


# -------------------------------------------------------------- node update

def test_node_update_passthrough_identity(rng):
    layout = IrrepLayout((3, 2, 1))
    h = random_feature(rng, layout, 5)
    zeros = IrrepFeature(layout, {l: np.zeros((5, layout.mult(l), 2 * l + 1))
                                  for l in layout.degrees()})
    proj = {}
    for l in layout.degrees():
        ml = layout.mult(l)
        W = np.zeros((2 * ml, ml))
        W[:ml, :] = np.eye(ml)
        proj[l] = Tensor(W)
    out = node_update(h, zeros, proj, Tensor(np.zeros(layout.mult(0))))
    feature_allclose(out, h, atol=0)


def test_node_update_equivariance(rng):
    layout = IrrepLayout((3, 2, 1))
    h = random_feature(rng, layout, 5)
    m = random_feature(rng, layout, 5)
    proj = {l: Tensor(rng.normal(size=(2 * layout.mult(l), layout.mult(l))))
            for l in layout.degrees()}
    b0 = Tensor(rng.normal(size=layout.mult(0)))
    R = random_rotation(rng)
    a = rotate_feature(node_update(h, m, proj, b0), R)
    b = node_update(rotate_feature(h, R), rotate_feature(m, R), proj, b0)
    feature_allclose(a, b, atol=1e-10)


def test_node_update_output_width(rng):
    layout = IrrepLayout((4, 2, 1))
    h = random_feature(rng, layout, 7)
    m = random_feature(rng, layout, 7)
    proj = {l: Tensor(rng.normal(size=(2 * layout.mult(l), layout.mult(l))))
            for l in layout.degrees()}
    out = node_update(h, m, proj, Tensor(np.zeros(4)))
    assert {l: b.shape for l, b in out.blocks.items()} == {
        l: (7, layout.mult(l), 2 * l + 1) for l in layout.degrees()}


def test_node_update_matches_its_einsum_definition(rng):
    layout = IrrepLayout((4, 3, 2))
    h, m = random_feature(rng, layout, 9), random_feature(rng, layout, 9)
    proj = {l: Tensor(rng.normal(size=(2 * layout.mult(l), layout.mult(l))))
            for l in layout.degrees()}
    b0 = Tensor(rng.normal(size=layout.mult(0)))
    out = node_update(h, m, proj, b0)
    for l in layout.degrees():
        cat = np.concatenate([h.blocks[l].data, m.blocks[l].data], axis=1)
        want = np.einsum("ecm,cd->edm", cat, proj[l].data)
        if l == 0:
            want = want + b0.data.reshape(1, -1, 1)
        assert np.max(np.abs(out.blocks[l].data - want)) <= 1e-12 * np.max(np.abs(want))


def test_node_update_gradients_match_finite_differences(rng):
    layout = IrrepLayout((3, 2, 1))
    h, m = random_feature(rng, layout, 4), random_feature(rng, layout, 4)
    for feat in (h, m):
        for b in feat.blocks.values():
            b.requires_grad = True
    proj = {l: Tensor(rng.normal(size=(2 * layout.mult(l), layout.mult(l))), requires_grad=True)
            for l in layout.degrees()}
    b0 = Tensor(rng.normal(size=layout.mult(0)), requires_grad=True)

    def loss_fn():
        out = node_update(h, m, proj, b0)
        return functools.reduce(ad.add, (ad.tsum(ad.mul(b, b)) for b in out.blocks.values()))

    _assert_gradients_match_finite_differences(
        loss_fn, [*h.blocks.values(), *m.blocks.values(), *proj.values(), b0])


def test_gated_activation_equivariance(rng):
    layout = IrrepLayout((3, 2, 1))
    h = random_feature(rng, layout, 6)
    gates = {l: (Tensor(rng.normal(size=(3, layout.mult(l)))),
                 Tensor(rng.normal(size=layout.mult(l))))
             for l in layout.degrees() if l > 0}
    R = random_rotation(rng)
    a = rotate_feature(gated_activation(h, gates), R)
    b = gated_activation(rotate_feature(h, R), gates)
    feature_allclose(a, b, atol=1e-10)


# ------------------------------------------------------------------ pooling

def test_pool_single_nodes_verbatim(rng):
    layout = IrrepLayout((4, 1, 0))
    feat = random_feature(rng, layout, 2)
    pooled = invariant_pool(feat, np.zeros(2, dtype=np.intp), np.array([0, 1]), 1)
    np.testing.assert_allclose(pooled.data[0, :4], feat.blocks[0].data[0, :, 0])
    np.testing.assert_allclose(pooled.data[0, 4:], feat.blocks[0].data[1, :, 0])


def test_pool_invariant_under_rotation_and_permutation(rng):
    layout = IrrepLayout((3, 2, 1))
    feat = random_feature(rng, layout, 7)
    node_graph, kinds = np.zeros(7, dtype=np.intp), np.array([0] * 4 + [1] * 3)
    pooled = invariant_pool(feat, node_graph, kinds, 1)
    R = random_rotation(rng)
    np.testing.assert_allclose(invariant_pool(rotate_feature(feat, R), node_graph, kinds, 1).data,
                               pooled.data, atol=1e-12)
    perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(3)])
    shuffled = IrrepFeature(layout, {l: feat.blocks[l].data[perm]
                                     for l in layout.degrees()})
    np.testing.assert_allclose(invariant_pool(shuffled, node_graph, kinds, 1).data,
                               pooled.data, atol=1e-12)


# ------------------------------------------------------------------ readout

def _readout_weights(rng, fp_width=16, emb=4, pooled=6, hidden=5, zero_bias=True):
    def mk(shape, fan):
        return Tensor(rng.uniform(-1, 1, size=shape) / math.sqrt(fan),
                      requires_grad=True)
    b = (lambda k: Tensor(np.zeros(k), requires_grad=True)) if zero_bias else \
        (lambda k: Tensor(rng.normal(size=k), requires_grad=True))
    return (mk((fp_width, emb), fp_width), b(emb),
            mk((pooled + emb, hidden), pooled + emb), b(hidden),
            mk((hidden, 1), hidden), b(1))


def test_readout_zeros_to_zero(rng):
    w = _readout_weights(rng)
    out = readout(Tensor(np.zeros((1, 6))), np.zeros((1, 16), dtype=bool), w)
    assert out.data.tolist() == [0.0]


def test_readout_finite_scalar(rng):
    w = _readout_weights(rng, zero_bias=False)
    out = readout(Tensor(rng.normal(size=(3, 6))), rng.random((3, 16)) > 0.5, w)
    assert out.data.shape == (3,)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("shape", [(16,), (2, 16), (1, 15), (1, 1, 16)],
                         ids=["one-row-1d", "extra-row", "narrow", "3d"])
def test_readout_rejects_a_fingerprint_matrix_of_another_shape(rng, shape):
    w = _readout_weights(rng)
    with pytest.raises(ConfigError, match=r"fingerprint matrix .* configured width 16"):
        readout(Tensor(np.zeros((1, 6))), np.zeros(shape, dtype=bool), w)


def test_readout_gradients_match_finite_differences(rng):
    weights = _readout_weights(rng, zero_bias=False)
    pooled = rng.normal(size=(1, 6))
    fp = rng.random((1, 16)) > 0.5

    def loss_fn():
        return ad.tsum(readout(Tensor(pooled), fp, weights))

    with Tape() as tape:
        loss = loss_fn()
    grads = tape.gradient(loss, list(weights))
    h = 1e-5
    for w, got in zip(weights, grads):
        flat = w.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp_val = float(loss_fn().data)
            flat[i] = orig - h
            fm_val = float(loss_fn().data)
            flat[i] = orig
            want = (fp_val - fm_val) / (2 * h)
            assert abs(got.reshape(-1)[i] - want) <= 1e-4 * max(1.0, abs(want))


# ------------------------------------------------------------------ forward

def _toy(rng, **kw):
    rec = random_complex(rng, "fwd", **kw)
    graph = build_pair_graph(rec.ligand, rec.protein, SMALL_CUT)
    fp = morgan_fingerprint(rec.ligand, nbits=SMALL_CFG.fingerprint_width)
    return rec, graph, fp


def test_forward_deterministic(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    a = forward_one(graph, fp, params, SMALL_CFG).data
    b = forward_one(graph, fp, params, SMALL_CFG).data
    assert float(a) == float(b)


def test_forward_rigid_motion_invariance(rng):
    # training mode exercises the batch-statistics path, where features are
    # order-one rather than init-scale
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward_one(graph, fp, params, SMALL_CFG, training=True).data)
    for _ in range(5):
        R = random_rotation(rng)
        t = rng.normal(size=3) * 10
        g2 = build_pair_graph(transform_ligand(rec.ligand, R, t),
                              transform_protein(rec.protein, R, t), SMALL_CUT)
        moved = float(forward_one(g2, fp, params, SMALL_CFG, training=True).data)
        assert abs(moved - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_rigid_motion_invariance_inference_mode(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    # warm the running statistics so inference features are realistic
    for _ in range(3):
        forward_one(graph, fp, params, SMALL_CFG, training=True)
    base = float(forward_one(graph, fp, params, SMALL_CFG).data)
    R = random_rotation(rng)
    t = rng.normal(size=3) * 10
    g2 = build_pair_graph(transform_ligand(rec.ligand, R, t),
                          transform_protein(rec.protein, R, t), SMALL_CUT)
    moved = float(forward_one(g2, fp, params, SMALL_CFG).data)
    assert abs(moved - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_reflection_invariance(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward_one(graph, fp, params, SMALL_CFG, training=True).data)
    flip = -np.eye(3)
    g2 = build_pair_graph(transform_ligand(rec.ligand, R=flip),
                          transform_protein(rec.protein, R=flip), SMALL_CUT)
    mirrored = float(forward_one(g2, fp, params, SMALL_CFG, training=True).data)
    assert abs(mirrored - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_node_relabeling_invariance(rng):
    from cpi3d.chemio import Bond, LigandMolecule, ProteinStructure
    rec, graph, fp = _toy(rng, n_atoms=6, n_residues=5)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward_one(graph, fp, params, SMALL_CFG).data)

    perm = rng.permutation(len(rec.ligand.atoms))
    inverse = np.argsort(perm)
    atoms = tuple(rec.ligand.atoms[perm[i]] for i in range(len(perm)))
    bonds = tuple(Bond(i=int(inverse[b.i]), j=int(inverse[b.j]), order=b.order)
                  for b in rec.ligand.bonds)
    lig2 = LigandMolecule(id=rec.ligand.id, atoms=atoms, bonds=bonds)
    rperm = rng.permutation(len(rec.protein.residues))
    prot2 = ProteinStructure(id=rec.protein.id, residues=tuple(
        rec.protein.residues[i] for i in rperm
    ))
    g2 = build_pair_graph(lig2, prot2, SMALL_CUT)
    relabeled = float(forward_one(g2, morgan_fingerprint(
        lig2, nbits=SMALL_CFG.fingerprint_width), params, SMALL_CFG).data)
    assert abs(relabeled - base) / (abs(base) + 1e-8) < 1e-10


def test_forward_internal_blocks_transform_by_wigner(rng):
    # batch-statistics mode: batch norm rescales l>0 messages to unit RMS,
    # so the blocks carry order-one signal and the tolerance is meaningful
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    _, feats = forward_one(graph, fp, params, SMALL_CFG, training=True,
                           return_features=True)
    R = random_rotation(rng)
    g2 = build_pair_graph(transform_ligand(rec.ligand, R=R),
                          transform_protein(rec.protein, R=R), SMALL_CUT)
    _, feats_rot = forward_one(g2, fp, params, SMALL_CFG, training=True,
                               return_features=True)
    assert len(feats) == SMALL_CFG.layers * 3
    magnitude = 0.0
    for snap, snap_rot in zip(feats, feats_rot):
        expected = rotate_feature(snap["feature"], R)
        for l in SMALL_CFG.layout.degrees():
            err = np.abs(expected.blocks[l].data
                         - snap_rot["feature"].blocks[l].data).max()
            assert err < 1e-8, (snap["layer"], snap["kind"], l, err)
            if l > 0:
                magnitude = max(magnitude, np.abs(snap["feature"].blocks[l].data).max())
    assert magnitude > 1e-3   # the check must not pass on numerically dead blocks


def test_forward_translation_exact(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = forward_one(graph, fp, params, SMALL_CFG).data
    g2 = build_pair_graph(transform_ligand(rec.ligand, t=[25.0, -4.0, 1.5]),
                          transform_protein(rec.protein, t=[25.0, -4.0, 1.5]),
                          SMALL_CUT)
    moved = forward_one(g2, fp, params, SMALL_CFG).data
    assert float(base) == float(moved)


def test_forward_handles_single_atom_ligand(rng):
    rec, graph, fp = _toy(rng, n_atoms=1, n_residues=4)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    value = forward_one(graph, fp, params, SMALL_CFG)
    assert np.isfinite(float(value.data))


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(lmax=3)
    with pytest.raises(ConfigError):
        ModelConfig(layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(layout=IrrepLayout((0, 4, 2)))


# ------------------------------------------------------------ receptor cache

CACHE_CFG = ModelConfig(layers=3, layout=IrrepLayout((6, 3, 2)), edge_mlp_hidden=12,
                        readout_hidden=8, fingerprint_width=64, fingerprint_embed=8)
CACHE_CUT = CutoffConfig(rbf_k=8)


def _screen(rng, protein, ligand_sizes, center=(0.0, 0.0, 0.0), cfg=CACHE_CFG):
    """(graph, fingerprint) for ligands of the given sizes in the pocket."""
    out = []
    for i, n_atoms in enumerate(ligand_sizes):
        lig = random_ligand(rng, n_atoms=n_atoms, mol_id=f"lig{i}", center=center)
        out.append((build_pair_graph(lig, protein, CACHE_CUT),
                    morgan_fingerprint(lig, nbits=cfg.fingerprint_width)))
    return out


def _assert_cached_matches_forward(items, params, cfg=CACHE_CFG, cache=None):
    """Cached predictions, and the node features after every stage, agree
    with the uncached forward within 1e-12 relative."""
    if cache is None:
        cache = ReceptorCache()
    for graph, fp in items:
        want, want_feats = forward_one(graph, fp, params, cfg, return_features=True)
        got, got_feats = forward_one(graph, fp, params, cfg, return_features=True, cache=cache)
        assert abs(float(got.data) - float(want.data)) <= 1e-12 * abs(float(want.data))
        for g, w in zip(got_feats, want_feats):
            for l, block in w["feature"].blocks.items():
                np.testing.assert_allclose(g["feature"].blocks[l].data, block.data, rtol=0,
                                           atol=1e-12 * np.abs(block.data).max())
    return cache


@pytest.fixture(scope="module")
def receptor():
    return lattice_receptor(np.random.default_rng(2024))


def test_cache_matches_forward_on_a_shared_receptor(rng, receptor):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 24, 28, 32, 36, 40))
    n_pp = len(items[0][0].edges[EdgeKind.PP])
    assert n_pp > 4 * equinet.EDGE_BLOCK
    cache = _assert_cached_matches_forward(items, params)
    # the last ligand reused layer 0, updated part of layer 1 and
    # recomputed layer 2, where the changes have reached most residues
    assert cache.recomputed[0] == 0
    assert 0 < cache.recomputed[1] < n_pp // 2
    assert cache.recomputed[2] == n_pp


def test_cache_matches_forward_on_interleaved_receptors(rng):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    rec_a, rec_b = lattice_receptor(rng, n_residues=120), lattice_receptor(rng, n_residues=150)
    (a1, a2), (b1,) = _screen(rng, rec_a, (12, 16)), _screen(rng, rec_b, (14,))
    cache = _assert_cached_matches_forward([a1, b1, a2], params)
    # returning to receptor A found B's entry, so A's reference was made
    # afresh, and a2 recomputed what it recomputes on a cache of its own
    n_pp = len(a2[0].edges[EdgeKind.PP])
    assert cache.recomputed == _assert_cached_matches_forward([a2], params).recomputed
    assert cache.recomputed[0] == 0 and 0 < cache.recomputed[1] < n_pp
    assert cache.recomputed[2] == n_pp


def test_cache_matches_forward_for_an_out_of_pocket_ligand(rng, receptor):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    inside = _screen(rng, receptor, (24,))
    outside = _screen(rng, receptor, (16,), center=(200.0, 0.0, 0.0))
    assert outside[0][0].warnings[0] and len(outside[0][0].edges[EdgeKind.PC]) == 0
    _assert_cached_matches_forward(inside + outside + inside, params)
    _assert_cached_matches_forward(outside + inside, params)


def test_cache_matches_forward_when_the_last_pp_stage_turns_whole_and_back(rng):
    # on a small receptor a central ligand sends a pc edge from every
    # residue, so the last pp stage is whole; an off-centre one does not
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    receptor = lattice_receptor(rng, n_residues=20)
    (whole,) = _screen(rng, receptor, (12,))
    (part,) = _screen(rng, receptor, (12,), center=(9.0, 0.0, 0.0))
    pp = whole[0].edges[EdgeKind.PP]
    assert np.array_equal(part[0].edges[EdgeKind.PP].a, pp.a)

    def is_whole(graph):
        return np.isin(pp.a, graph.edges[EdgeKind.PC].b).all()

    assert is_whole(whole[0]) and not is_whole(part[0])
    assert len(part[0].edges[EdgeKind.PC]) > 0
    last = CACHE_CFG.layers - 1
    for first, second in ((whole, part), (part, whole)):
        cache = ReceptorCache()
        for item in (first, second, first):
            _assert_cached_matches_forward([item], params, cache=cache)
            # every residue of the small receptor differs from the
            # receptor alone by the last layer
            assert cache.recomputed[last] == len(pp)
            # a whole stage's reference sums come from the reference's rows and gates
            assert last in cache.ref_sums or item is part
        assert (last in cache.ref_sums) == (first is whole or second is whole)


def test_cache_updates_the_edges_from_residues_a_wide_ligand_changes(rng, receptor):
    # a ligand wider than the pocket touches most residues, so layer 1
    # adds the row change of most pp edges to the reference sums
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    small = _screen(rng, receptor, (8,))
    lig = random_ligand(rng, n_atoms=60, mol_id="wide")
    wide = LigandMolecule(id=lig.id, bonds=lig.bonds, atoms=tuple(
        Atom(element=a.element, position=a.position * 3.0) for a in lig.atoms))
    items = small + [(build_pair_graph(wide, receptor, CACHE_CUT),
                      morgan_fingerprint(wide, nbits=CACHE_CFG.fingerprint_width))]
    cache = _assert_cached_matches_forward(items, params)
    # layer 1's pp stage reads the features after layer 1's cc stage
    layer1_rows = []
    for graph, fp in items:
        _, feats = forward_one(graph, fp, params, CACHE_CFG, return_features=True)
        h = next(f["feature"] for f in feats if f["layer"] == 1 and f["kind"] == "cc")
        layer1_rows.append({l: b.data[graph.n_ligand:] for l, b in h.blocks.items()})
    n_res = len(layer1_rows[0][0])
    differs = np.zeros(n_res, dtype=bool)
    for l, rows in layer1_rows[1].items():
        differs |= (rows != layer1_rows[0][l]).reshape(n_res, -1).any(axis=1)
    pp = items[1][0].edges[EdgeKind.PP]
    src = pp.b - items[1][0].n_ligand
    assert len(pp) // 2 < cache.recomputed[1] < len(pp)
    assert cache.recomputed[1] == np.count_nonzero(differs[src])


def test_cache_blocked_sums_match_unblocked(rng, receptor, monkeypatch):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 30))

    def ref_sums(block):
        monkeypatch.setattr(equinet, "EDGE_BLOCK", block)
        cache = ReceptorCache()
        preds = [float(forward_one(g, fp, params, CACHE_CFG, cache=cache).data) for g, fp in items]
        return preds, cache.ref_sums

    blocked_preds, blocked = ref_sums(500)
    whole_preds, whole = ref_sums(10 ** 9)
    np.testing.assert_allclose(blocked_preds, whole_preds, rtol=1e-12, atol=0)
    # the last layer's pp stage is not whole, so it keeps no reference
    assert whole.keys() == blocked.keys() == set(range(CACHE_CFG.layers - 1))
    for layer in whole:
        for l, s in whole[layer].items():
            np.testing.assert_allclose(blocked[layer][l], s, rtol=1e-12,
                                       atol=1e-12 * np.abs(s).max())


def test_dead_final_stage_tensors_move_nothing(rng, receptor):
    """The readout reads no l > 0 output of the final stage: perturbing
    the tensors that only produce them leaves inference predictions and
    every training gradient byte-identical. A last-layer pp l_out > 0
    weight moves an in-pocket ligand's prediction, and not that of a
    ligand with no pc edge, whose pocket is empty."""
    inside = _screen(rng, receptor, (24,))
    outside = _screen(rng, receptor, (16,), center=(200.0, 0.0, 0.0))
    toys = [random_complex(rng, f"t{i}", with_label=True) for i in range(3)]
    batch = [(build_pair_graph(r.ligand, r.protein, CACHE_CUT),
              morgan_fingerprint(r.ligand, nbits=CACHE_CFG.fingerprint_width)) for r in toys]
    last = f"layer{CACHE_CFG.layers - 1}"
    paths = CACHE_CFG.active_paths()

    def observe(perturbed, scale=1.0):
        params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
        for name in perturbed:
            params[name].data = params[name].data + scale * rng.normal(size=params[name].shape)
        cache = ReceptorCache()
        preds = [float(forward_one(g, fp, params, CACHE_CFG, **kw).data)
                 for g, fp in inside + outside for kw in ({}, {"cache": cache})]

        def loss():
            pred = forward(pack_graphs([g for g, _ in batch]),
                           np.stack([fp for _, fp in batch]), params, CACHE_CFG, training=True)
            return ad.tsum(ad.mul(pred, pred))

        _, grads = grad(loss, params)
        return preds, grads

    base_preds, base_grads = observe([])
    dead = [f"{last}.pc.tp.{li}{ls}{lo}" for li, ls, lo in paths if lo > 0]
    assert len(dead) == 8
    dead += [f"{last}.pc.{t}{l}" for l in (1, 2) for t in ("bn.gamma", "bn.run_norm")]
    dead += [f"{last}.pc.{t}" for l in (1, 2) for t in (f"proj.l{l}.W", f"gate.l{l}.W",
                                                         f"gate.l{l}.b")]
    preds, grads = observe(dead)
    assert preds == base_preds
    assert grads.keys() == base_grads.keys()
    for name, g in grads.items():
        assert g.tobytes() == base_grads[name].tobytes(), name

    pp_weight = next(f"{last}.pp.tp.{li}{ls}{lo}" for li, ls, lo in paths if lo > 0)
    # at initialisation the last layer's l > 0 features are about 1e-9
    preds, _ = observe([pp_weight], scale=1e6)
    assert preds[0] != base_preds[0] and preds[1] != base_preds[1]    # in the pocket
    assert preds[2:] == base_preds[2:]                                # no pc edge


def _oracle_kernel(h_src, sh, path_gates, path_weights, paths, out_layout):
    """`tensor_product_message` through `oracles.tp_message_oracle`."""
    return IrrepFeature(out_layout, tp_message_oracle(
        {l: b.data for l, b in h_src.blocks.items()}, ad.as_tensor(sh).data,
        ad.as_tensor(path_gates).data, {p: w.data for p, w in path_weights.items()},
        paths, out_layout.muls))


def _o1_params(item):
    """Parameters whose features stay O(1) through the last layer on the
    (graph, fingerprint) `item`, and on its receptor's other ligands."""
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    # gates near 1 keep the messages above the batch-norm epsilon, and
    # the running statistics of one training forward then normalise
    # every stage
    for name in params.names():
        if name.endswith(".psi.b2"):
            params[name].data = params[name].data + 1.0
    running = [name for name in params.names() if ".bn.run_" in name]
    before = {name: params[name].data.copy() for name in running}
    forward_one(*item, params, CACHE_CFG, training=True)
    for name in running:
        params[name].data = (params[name].data - (1 - BN_MOMENTUM) * before[name]) / BN_MOMENTUM
    _, feats = forward_one(*item, params, CACHE_CFG, return_features=True)
    assert all(np.abs(f["feature"].blocks[0].data).max() > 0.1 for f in feats)
    return params


def test_forward_matches_the_per_path_oracle_through_the_last_layer(rng, monkeypatch):
    """On a model whose last-layer features are O(1), cached and uncached
    predictions agree with the forward that runs `tp_message_oracle` in
    place of the kernel, and a 1e-6 relative change to a last-layer weight
    moves them by more than 1e-9 relative."""
    items = _screen(rng, lattice_receptor(rng, n_residues=80), (14, 18))
    params = _o1_params(items[0])

    def predict(cache):
        return np.array([float(forward_one(g, fp, params, CACHE_CFG, cache=cache).data)
                         for g, fp in items])

    uncached, cached = predict(None), predict(ReceptorCache())
    with monkeypatch.context() as m:
        m.setattr(equinet, "tensor_product_message", _oracle_kernel)
        np.testing.assert_allclose(uncached, predict(None), rtol=1e-12, atol=0)
        np.testing.assert_allclose(cached, predict(ReceptorCache()), rtol=1e-12, atol=0)

    weight = params[f"layer{CACHE_CFG.layers - 1}.pp.tp.110"]
    weight.data = weight.data * (1 + 1e-6)
    for moved, base in ((predict(None), uncached), (predict(ReceptorCache()), cached)):
        assert np.all(np.abs(moved - base) > 1e-9 * np.abs(base))


def test_cached_predictions_do_not_depend_on_the_ligands_before_them(rng):
    """The reference is the receptor alone: on the O(1)-feature model each
    ligand's cached prediction is the same bits whether the manifest runs
    in order, reversed or holds that ligand alone, and agrees with the
    uncached forward within 1e-12."""
    items = _screen(rng, lattice_receptor(rng, n_residues=80), (12, 14, 16, 18))
    params = _o1_params(items[0])

    def predict(order):
        cache = ReceptorCache()
        return {i: forward_one(*items[i], params, CACHE_CFG, cache=cache).data.tobytes()
                for i in order}

    in_order = predict(range(4))
    assert predict(reversed(range(4))) == in_order
    for i in range(4):
        assert predict([i]) == {i: in_order[i]}
    uncached = np.array([float(forward_one(*item, params, CACHE_CFG).data) for item in items])
    cached = np.array([np.frombuffer(in_order[i])[0] for i in range(4)])
    np.testing.assert_allclose(cached, uncached, rtol=1e-12, atol=0)


def test_cache_rejects_training(rng):
    _, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    with pytest.raises(ConfigError, match="inference"):
        forward_one(graph, fp, params, SMALL_CFG, training=True, cache=ReceptorCache())


def test_cache_peak_memory_below_uncached_forward(rng, receptor, monkeypatch):
    cfg = ModelConfig(layers=1, fingerprint_width=64)
    params = init_params(cfg, CACHE_CUT, seed=3)
    ((graph, fp),) = _screen(rng, receptor, (24,), cfg=cfg)

    def peak(**kw):
        tracemalloc.start()
        try:
            forward_one(graph, fp, params, cfg, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    uncached = peak()
    # the blocked message stage peaks at half the unblocked one or less
    with monkeypatch.context() as m:
        m.setattr(equinet, "EDGE_BLOCK", 10 ** 9)
        assert uncached <= peak() / 2
    cache = ReceptorCache()
    fill = peak(cache=cache)
    held = sum(g.nbytes for g in cache.gates.values()) + sum(
        a.nbytes for store in (cache.ref_rows, cache.ref_sums)
        for blocks in store.values() for a in blocks.values())
    assert fill <= uncached + held    # the uncached work plus what the cache keeps
    assert peak(cache=cache) < uncached    # reuses it


def _checked_gates(monkeypatch) -> list[int]:
    """Patch `equinet.edge_gates` so that every call compares its gates
    with `block_gates_oracle` bit for bit; the returned list collects the
    compared row counts."""
    rows = []
    edge_gates = equinet.edge_gates

    def checked(e, *args):
        got = edge_gates(e, *args)
        assert got.data.tobytes() == block_gates_oracle(e, *args).tobytes()
        rows.append(len(e))
        return got

    monkeypatch.setattr(equinet, "edge_gates", checked)
    return rows


def test_block_gates_equal_the_whole_array_rbf_route(rng, receptor, monkeypatch):
    """Every block's gates, from RBF rows that the block embeds itself,
    equal the edge network on rows of the whole-array RBF matrix bit for
    bit: in the uncached and cached forwards, in the gates the cache
    stores, and in a training forward. Its backward calls no `edge_gates`:
    `_block_adjoint` recomputes them."""
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 28, 36))
    rows = _checked_gates(monkeypatch)
    for graph, fp in items:
        forward_one(graph, fp, params, CACHE_CFG)
    uncached = sum(rows)
    cache = ReceptorCache()
    for graph, fp in items:
        forward_one(graph, fp, params, CACHE_CFG, cache=cache)
    cached = sum(rows) - uncached
    assert 0 < cached < uncached
    # only the last pp stage, which does not run whole, keeps its gates
    assert cache.gates.keys() == {CACHE_CFG.layers - 1}
    toys = [random_complex(rng, f"t{i}", with_label=True) for i in range(3)]
    pack = pack_graphs([build_pair_graph(r.ligand, r.protein, CACHE_CUT) for r in toys])
    fps = np.stack([morgan_fingerprint(r.ligand, nbits=CACHE_CFG.fingerprint_width)
                    for r in toys])
    before = sum(rows)
    forward(pack, fps, params, CACHE_CFG, training=True)
    once = sum(rows) - before
    assert once == CACHE_CFG.layers * sum(len(es) for es in pack.edges.values())
    grad(lambda: ad.tsum(forward(pack, fps, params, CACHE_CFG, training=True)), params)
    # the untaped forward and the taped one
    assert sum(rows) - before == 2 * once


def test_cached_forwards_hold_no_rbf_matrix(rng, receptor, monkeypatch):
    """Graphs hold distances, the cached forward embeds at most
    EDGE_BLOCK of them at a time, and nothing the graph or the cache
    holds afterwards has `rbf_k` columns."""
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 24))
    shapes = []
    rbf_embed = equinet.rbf_embed

    def recorded(dist, cutoffs):
        out = rbf_embed(dist, cutoffs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(equinet, "rbf_embed", recorded)
    cache = ReceptorCache()
    for graph, fp in items:
        forward_one(graph, fp, params, CACHE_CFG, cache=cache)
    assert len(items[0][0].edges[EdgeKind.PP]) > 4 * equinet.EDGE_BLOCK
    assert shapes and all(n <= equinet.EDGE_BLOCK and k == CACHE_CUT.rbf_k for n, k in shapes)
    held = [*cache.gates.values()] + [a for store in (cache.ref_rows, cache.ref_sums)
                                      for blocks in store.values() for a in blocks.values()]
    for graph, _ in items:
        held += [graph.positions, graph.kinds, graph.ligand_features, graph.residue_features]
        held += [getattr(es, f.name) for es in graph.edges.values()
                 for f in dataclasses.fields(es)]
    assert all(a.shape[-1] != CACHE_CUT.rbf_k for a in held if a.ndim == 2)
