import math

import numpy as np
import pytest

from cpi3d.errors import ValidationError
from cpi3d.so3 import (
    allowed_paths,
    clebsch_gordan,
    random_rotation,
    sh_slice,
    spherical_harmonics_batch,
)

from oracles import P_YZX, wigner_d


def _sh(v):
    """Harmonics of one unit vector, as a one-row batch."""
    return spherical_harmonics_batch(np.asarray(v)[None])[0]


def test_l0_is_constant(rng):
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        Y = _sh(v)
        assert Y[0] == pytest.approx(0.28209479177387814, abs=1e-12)


def test_z_axis_values():
    Y = _sh(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(Y[sh_slice(1)], [0.0, 0.48860251190292, 0.0], atol=1e-12)
    l2 = Y[sh_slice(2)]
    assert l2[2] == pytest.approx(0.6307831305050401, abs=1e-12)
    np.testing.assert_allclose([l2[0], l2[1], l2[3], l2[4]], 0.0, atol=1e-12)


def test_parity(rng):
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        Y, Ym = _sh(v), _sh(-v)
        for l in range(3):
            np.testing.assert_array_equal(Ym[sh_slice(l)], (-1.0) ** l * Y[sh_slice(l)])


def test_non_unit_input_rejected():
    with pytest.raises(ValidationError):
        _sh(np.array([1.0, 1.0, 0.0]))


def test_batch_matches_scalar(rng):
    vs = rng.normal(size=(50, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    batch = spherical_harmonics_batch(vs)
    for i, v in enumerate(vs):
        np.testing.assert_allclose(batch[i], _sh(v), atol=1e-14)


def test_batch_zero_rows():
    out = spherical_harmonics_batch(np.zeros((2, 3)))
    assert out[0, 0] == pytest.approx(0.28209479177387814)
    np.testing.assert_array_equal(out[:, 1:], 0.0)


def test_wigner_identity():
    for l in range(3):
        np.testing.assert_allclose(wigner_d(np.eye(3), l), np.eye(2 * l + 1), atol=1e-14)


def test_wigner_transforms_harmonics(rng):
    worst = 0.0
    for _ in range(100):
        R = random_rotation(rng)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        Y = _sh(v)
        Yr = _sh(R @ v)
        for l in range(3):
            err = np.abs(wigner_d(R, l) @ Y[sh_slice(l)] - Yr[sh_slice(l)]).max()
            worst = max(worst, err)
    assert worst < 1e-10


def test_wigner_homomorphism(rng):
    for _ in range(25):
        R1, R2 = random_rotation(rng), random_rotation(rng)
        for l in range(3):
            np.testing.assert_allclose(
                wigner_d(R1 @ R2, l), wigner_d(R1, l) @ wigner_d(R2, l), atol=1e-10
            )


def test_wigner_orthogonal(rng):
    for _ in range(10):
        R = random_rotation(rng)
        for l in range(3):
            D = wigner_d(R, l)
            np.testing.assert_allclose(D @ D.T, np.eye(2 * l + 1), atol=1e-12)


def test_wigner_rejects_non_rotation():
    with pytest.raises(ValidationError):
        wigner_d(np.diag([1.0, 1.0, -1.0]), 1)   # improper
    with pytest.raises(ValidationError):
        wigner_d(np.ones((3, 3)), 1)


def test_cg_row_orthonormality():
    for l1 in range(3):
        for l2 in range(3):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 2) + 1):
                C = clebsch_gordan(l1, l2, l3)
                gram = np.einsum("Mab,Nab->MN", C, C)
                np.testing.assert_allclose(gram, np.eye(2 * l3 + 1), atol=1e-12)


def test_cg_cross_degree_orthogonality():
    # distinct l3 slices of the same (l1, l2) product are orthogonal tensors
    for l1, l2 in ((1, 1), (1, 2), (2, 2)):
        outs = range(abs(l1 - l2), min(l1 + l2, 2) + 1)
        for l3 in outs:
            for l3p in outs:
                if l3 == l3p:
                    continue
                C, Cp = clebsch_gordan(l1, l2, l3), clebsch_gordan(l1, l2, l3p)
                cross = np.einsum("Mab,Nab->MN", C, Cp)
                np.testing.assert_allclose(cross, 0.0, atol=1e-12)


def test_cg_intertwines_wigner(rng):
    for _ in range(20):
        R = random_rotation(rng)
        for l1 in range(3):
            for l2 in range(3):
                for l3 in range(abs(l1 - l2), min(l1 + l2, 2) + 1):
                    C = clebsch_gordan(l1, l2, l3)
                    lhs = np.einsum("MN,Nab->Mab", wigner_d(R, l3), C)
                    rhs = np.einsum("Mab,ac,bd->Mcd", C, wigner_d(R, l1), wigner_d(R, l2))
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_cg_110_is_scaled_dot():
    C = clebsch_gordan(1, 1, 0)
    np.testing.assert_allclose(C[0], np.eye(3) / math.sqrt(3.0), atol=1e-14)


def test_cg_111_is_scaled_cross(rng):
    # contraction of two l=1 blocks through the 1x1->1 coupling is the cross
    # product up to one fixed scale shared by all inputs
    C = clebsch_gordan(1, 1, 1)
    ratios = []
    for _ in range(20):
        u, v = rng.normal(size=3), rng.normal(size=3)
        w = np.einsum("Mab,a,b->M", C, P_YZX @ u, P_YZX @ v)
        cross = P_YZX @ np.cross(u, v)
        mask = np.abs(cross) > 1e-8
        ratios.extend((w[mask] / cross[mask]).tolist())
    ratios = np.asarray(ratios)
    np.testing.assert_allclose(ratios, ratios[0], atol=1e-10)
    assert abs(ratios[0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_allowed_paths_parity_filter():
    full = allowed_paths(2, parity_even_only=False)
    even = allowed_paths(2, parity_even_only=True)
    assert (1, 1, 1) in full and (1, 1, 1) not in even
    assert all((li + ls + lo) % 2 == 0 for li, ls, lo in even)
    assert set(even) < set(full)
    assert len(full) == 15 and len(even) == 11


def test_rotation_about_axis():
    # a quarter turn about z by Rodrigues' formula: x goes to y, and the
    # degree-1 harmonics follow wigner_d
    K = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    R = np.eye(3) + math.sin(math.pi / 2) * K + (1.0 - math.cos(math.pi / 2)) * (K @ K)
    np.testing.assert_allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)
    unit = np.array([[1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
    np.testing.assert_allclose(spherical_harmonics_batch(unit @ R.T)[:, sh_slice(1)],
                               spherical_harmonics_batch(unit)[:, sh_slice(1)] @ wigner_d(R, 1).T,
                               atol=1e-12)
