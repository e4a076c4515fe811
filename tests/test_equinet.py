import functools
import math
import tracemalloc

import numpy as np
import pytest

from cpi3d import autodiff as ad
from cpi3d import equinet
from cpi3d.autodiff import Tape, Tensor
from cpi3d.equinet import (
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
from cpi3d.chemio import Atom, LigandMolecule, ProteinStructure, Residue
from cpi3d.errors import ConfigError
from cpi3d.fingerprint import morgan_fingerprint
from cpi3d.geograph import CutoffConfig, EdgeKind, build_pair_graph
from cpi3d.so3 import (
    P_YZX,
    allowed_paths,
    random_rotation,
    sh_slice,
    spherical_harmonics_batch,
    wigner_d,
)
from cpi3d.synthetic import random_complex, random_ligand

from conftest import transform_ligand, transform_protein
from oracles import tp_message_oracle

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


@pytest.mark.parametrize("muls,parity_even_only", [
    ((32, 8, 4), True),     # the model's 11 paths at the default layout
    ((32, 8, 4), False),    # every triangle-rule path
    ((5, 0, 3), False),     # no l=1 channels, so no path touches l=1
])
def test_tp_matches_per_path_einsum_oracle(rng, muls, parity_even_only):
    layout = IrrepLayout(muls)
    paths = _paths_for(layout, parity_even_only)
    if parity_even_only:
        assert len(paths) == 11
    h, sh, gates, weights = _tp_inputs(rng, layout, paths, 40)
    out = tensor_product_message(h, sh, gates, weights, paths, layout)
    want = tp_message_oracle({l: b.data for l, b in h.blocks.items()}, sh, gates.data,
                             {p: w.data for p, w in weights.items()}, paths, muls)
    assert set(out.blocks) == set(want)
    for l, block in want.items():
        assert np.max(np.abs(out.blocks[l].data - block)) <= 1e-12 * np.max(np.abs(block))


def test_tp_gradients_match_finite_differences(rng):
    layout = IrrepLayout((3, 2, 1))
    paths = _paths_for(layout, parity_even_only=False)
    h, sh_arr, gates, weights = _tp_inputs(rng, layout, paths, 5, requires_grad=True)
    sh = Tensor(sh_arr, requires_grad=True)   # the edge_override route
    sources = [*h.blocks.values(), gates, *weights.values(), sh]

    def loss_fn():
        out = tensor_product_message(h, sh, gates, weights, paths, layout)
        return functools.reduce(ad.add, (ad.tsum(ad.mul(b, b)) for b in out.blocks.values()))

    with Tape() as tape:
        loss = loss_fn()
    grads = tape.gradient(loss, sources)

    step = 1e-5
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

def test_aggregate_single_and_opposite(rng):
    layout = IrrepLayout((2, 1, 0))
    single = random_feature(rng, layout, 1)
    out = aggregate_messages(single, np.array([0]), 1)
    feature_allclose(out, single, atol=0)

    m = random_feature(rng, layout, 1)
    both = IrrepFeature(layout, {
        l: np.concatenate([m.blocks[l].data, -m.blocks[l].data]) for l in layout.degrees()
    })
    out = aggregate_messages(both, np.array([0, 0]), 1)
    for l in layout.degrees():
        np.testing.assert_allclose(out.blocks[l].data, 0.0, atol=1e-16)


def test_aggregate_empty_segment_is_zero(rng):
    layout = IrrepLayout((2, 0, 0))
    msgs = random_feature(rng, layout, 3)
    out = aggregate_messages(msgs, np.array([0, 0, 2]), 4)
    np.testing.assert_array_equal(out.blocks[0].data[1], 0.0)
    np.testing.assert_array_equal(out.blocks[0].data[3], 0.0)


def test_aggregate_mean_within_bounds(rng):
    layout = IrrepLayout((3, 2, 1))
    msgs = random_feature(rng, layout, 12)
    dst = np.asarray(rng.integers(0, 3, size=12))
    out = aggregate_messages(msgs, dst, 3)
    for l in layout.degrees():
        for node in range(3):
            rows = msgs.blocks[l].data[dst == node]
            if len(rows) == 0:
                continue
            got = out.blocks[l].data[node]
            assert np.all(got <= rows.max(axis=0) + 1e-12)
            assert np.all(got >= rows.min(axis=0) - 1e-12)


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
    out = readout(Tensor(np.zeros(6)), np.zeros(16), w)
    assert float(out.data) == 0.0


def test_readout_finite_scalar(rng):
    w = _readout_weights(rng, zero_bias=False)
    out = readout(Tensor(rng.normal(size=6)), (rng.random(16) > 0.5).astype(float), w)
    assert out.data.shape == ()
    assert np.isfinite(out.data)


def test_readout_gradients_match_finite_differences(rng):
    weights = _readout_weights(rng, zero_bias=False)
    pooled = rng.normal(size=6)
    fp = (rng.random(16) > 0.5).astype(float)

    def loss_fn():
        return readout(Tensor(pooled), fp, weights)

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
    a = forward(graph, fp, params, SMALL_CFG).data
    b = forward(graph, fp, params, SMALL_CFG).data
    assert float(a) == float(b)


def test_forward_rigid_motion_invariance(rng):
    # training mode exercises the batch-statistics path, where features are
    # order-one rather than init-scale
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward(graph, fp, params, SMALL_CFG, training=True).data)
    for _ in range(5):
        R = random_rotation(rng)
        t = rng.normal(size=3) * 10
        g2 = build_pair_graph(transform_ligand(rec.ligand, R, t),
                              transform_protein(rec.protein, R, t), SMALL_CUT)
        moved = float(forward(g2, fp, params, SMALL_CFG, training=True).data)
        assert abs(moved - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_rigid_motion_invariance_inference_mode(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    # warm the running statistics so inference features are realistic
    for _ in range(3):
        forward(graph, fp, params, SMALL_CFG, training=True)
    base = float(forward(graph, fp, params, SMALL_CFG).data)
    R = random_rotation(rng)
    t = rng.normal(size=3) * 10
    g2 = build_pair_graph(transform_ligand(rec.ligand, R, t),
                          transform_protein(rec.protein, R, t), SMALL_CUT)
    moved = float(forward(g2, fp, params, SMALL_CFG).data)
    assert abs(moved - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_reflection_invariance(rng):
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward(graph, fp, params, SMALL_CFG, training=True).data)
    flip = -np.eye(3)
    g2 = build_pair_graph(transform_ligand(rec.ligand, R=flip),
                          transform_protein(rec.protein, R=flip), SMALL_CUT)
    mirrored = float(forward(g2, fp, params, SMALL_CFG, training=True).data)
    assert abs(mirrored - base) / (abs(base) + 1e-8) < 1e-5


def test_forward_node_relabeling_invariance(rng):
    from cpi3d.chemio import Bond, LigandMolecule, ProteinStructure
    rec, graph, fp = _toy(rng, n_atoms=6, n_residues=5)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    base = float(forward(graph, fp, params, SMALL_CFG).data)

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
    relabeled = float(forward(g2, morgan_fingerprint(
        lig2, nbits=SMALL_CFG.fingerprint_width), params, SMALL_CFG).data)
    assert abs(relabeled - base) / (abs(base) + 1e-8) < 1e-10


def test_forward_internal_blocks_transform_by_wigner(rng):
    # batch-statistics mode: batch norm rescales l>0 messages to unit RMS,
    # so the blocks carry order-one signal and the tolerance is meaningful
    rec, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    _, feats = forward(graph, fp, params, SMALL_CFG, training=True,
                       return_features=True)
    R = random_rotation(rng)
    g2 = build_pair_graph(transform_ligand(rec.ligand, R=R),
                          transform_protein(rec.protein, R=R), SMALL_CUT)
    _, feats_rot = forward(g2, fp, params, SMALL_CFG, training=True,
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
    base = forward(graph, fp, params, SMALL_CFG).data
    g2 = build_pair_graph(transform_ligand(rec.ligand, t=[25.0, -4.0, 1.5]),
                          transform_protein(rec.protein, t=[25.0, -4.0, 1.5]),
                          SMALL_CUT)
    moved = forward(g2, fp, params, SMALL_CFG).data
    assert float(base) == float(moved)


def test_forward_handles_single_atom_ligand(rng):
    rec, graph, fp = _toy(rng, n_atoms=1, n_residues=4)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    value = forward(graph, fp, params, SMALL_CFG)
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


def _receptor(rng, n_residues=300, spacing=5.2, pocket_radius=6.0):
    """Jittered lattice residues at folded-protein density around an empty
    pocket at the origin."""
    axis = (np.arange(9) - 4) * spacing
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid + rng.uniform(-0.5, 0.5, size=grid.shape)
    grid = grid[np.linalg.norm(grid, axis=1) > pocket_radius]
    keep = grid[np.argsort(np.linalg.norm(grid, axis=1), kind="stable")]
    aas = ("ALA", "GLY", "LEU", "SER", "ASP", "LYS", "PHE")
    return ProteinStructure(id="receptor", residues=tuple(
        Residue(aa=aas[i % len(aas)], chain="A", seq_index=i + 1, ca_position=p)
        for i, p in enumerate(keep[:n_residues])
    ))


def _screen(rng, protein, ligand_sizes, center=(0.0, 0.0, 0.0), cfg=CACHE_CFG):
    """(graph, fingerprint) for ligands of the given sizes in the pocket."""
    out = []
    for i, n_atoms in enumerate(ligand_sizes):
        lig = random_ligand(rng, n_atoms=n_atoms, mol_id=f"lig{i}", center=center)
        out.append((build_pair_graph(lig, protein, CACHE_CUT),
                    morgan_fingerprint(lig, nbits=cfg.fingerprint_width)))
    return out


def _assert_cached_matches_forward(items, params, cfg=CACHE_CFG):
    """Cached predictions, and the node features after every stage, agree
    with the uncached forward within 1e-12 relative."""
    cache = ReceptorCache()
    for graph, fp in items:
        want, want_feats = forward(graph, fp, params, cfg, return_features=True)
        got, got_feats = forward(graph, fp, params, cfg, return_features=True, cache=cache)
        assert abs(float(got.data) - float(want.data)) <= 1e-12 * abs(float(want.data))
        for g, w in zip(got_feats, want_feats):
            for l, block in w["feature"].blocks.items():
                np.testing.assert_allclose(g["feature"].blocks[l].data, block.data, rtol=0,
                                           atol=1e-12 * np.abs(block.data).max())
    return cache


@pytest.fixture(scope="module")
def receptor():
    return _receptor(np.random.default_rng(2024))


def test_cache_matches_forward_on_a_shared_receptor(rng, receptor):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 24, 28, 32, 36, 40))
    n_pp = len(items[0][0].edges[EdgeKind.PP])
    assert n_pp > 4 * equinet.PP_EDGE_BLOCK
    cache = _assert_cached_matches_forward(items, params)
    # the last ligand reused layer 0, updated part of layer 1 and
    # recomputed layer 2, where the changes have reached most residues
    assert cache.recomputed[0] == 0
    assert 0 < cache.recomputed[1] < n_pp // 2
    assert cache.recomputed[2] == n_pp


def test_cache_matches_forward_on_interleaved_receptors(rng):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    rec_a, rec_b = _receptor(rng, n_residues=120), _receptor(rng, n_residues=150)
    (a1, a2), (b1,) = _screen(rng, rec_a, (12, 16)), _screen(rng, rec_b, (14,))
    cache = _assert_cached_matches_forward([a1, b1, a2], params)
    # returning to receptor A found B's entry, so A was computed afresh
    assert all(cache.recomputed[layer] == len(a2[0].edges[EdgeKind.PP])
               for layer in range(CACHE_CFG.layers))


def test_cache_matches_forward_for_an_out_of_pocket_ligand(rng, receptor):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    inside = _screen(rng, receptor, (24,))
    outside = _screen(rng, receptor, (16,), center=(200.0, 0.0, 0.0))
    assert outside[0][0].warnings and len(outside[0][0].edges[EdgeKind.PC]) == 0
    _assert_cached_matches_forward(inside + outside + inside, params)
    _assert_cached_matches_forward(outside + inside, params)


def test_cache_full_path_for_a_ligand_changing_most_edges(rng, receptor):
    # a ligand wider than the pocket touches most residues, so layer 1
    # already has more than half of its pp edges changed
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    small = _screen(rng, receptor, (8,))
    lig = random_ligand(rng, n_atoms=60, mol_id="wide")
    wide = LigandMolecule(id=lig.id, bonds=lig.bonds, atoms=tuple(
        Atom(element=a.element, position=a.position * 3.0) for a in lig.atoms))
    items = small + [(build_pair_graph(wide, receptor, CACHE_CUT),
                      morgan_fingerprint(wide, nbits=CACHE_CFG.fingerprint_width))]
    cache = _assert_cached_matches_forward(items, params)
    assert cache.recomputed[1] == len(items[1][0].edges[EdgeKind.PP])


def test_cache_blocked_sums_match_unblocked(rng, receptor, monkeypatch):
    params = init_params(CACHE_CFG, CACHE_CUT, seed=3)
    items = _screen(rng, receptor, (20, 30))

    def ref_sums(block):
        monkeypatch.setattr(equinet, "PP_EDGE_BLOCK", block)
        cache = ReceptorCache()
        preds = [float(forward(g, fp, params, CACHE_CFG, cache=cache).data) for g, fp in items]
        return preds, cache.ref_sums

    blocked_preds, blocked = ref_sums(500)
    whole_preds, whole = ref_sums(10 ** 9)
    np.testing.assert_allclose(blocked_preds, whole_preds, rtol=1e-12, atol=0)
    for layer in range(CACHE_CFG.layers):
        for l, s in whole[layer].items():
            np.testing.assert_allclose(blocked[layer][l], s, rtol=1e-12,
                                       atol=1e-12 * np.abs(s).max())


def test_cache_rejects_training(rng):
    _, graph, fp = _toy(rng)
    params = init_params(SMALL_CFG, SMALL_CUT, seed=1)
    with pytest.raises(ConfigError, match="inference"):
        forward(graph, fp, params, SMALL_CFG, training=True, cache=ReceptorCache())


def test_cache_peak_memory_below_uncached_forward(rng, receptor):
    cfg = ModelConfig(layers=1, fingerprint_width=64)
    params = init_params(cfg, CACHE_CUT, seed=3)
    ((graph, fp),) = _screen(rng, receptor, (24,), cfg=cfg)

    def peak(**kw):
        tracemalloc.start()
        try:
            forward(graph, fp, params, cfg, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    uncached = peak()
    cache = ReceptorCache()
    assert peak(cache=cache) < uncached    # fills the cache
    assert peak(cache=cache) < uncached    # reuses it
