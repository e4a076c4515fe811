"""Real spherical harmonics and real-basis Clebsch-Gordan coupling tensors
for degrees l <= 2.

Conventions: real harmonics in the standard (Wikipedia) normalization with
integral of |Y|^2 over the sphere equal to 1; blocks ordered l = 0..LMAX
with components m = -l..l, so the l=1 block of a unit vector (x, y, z) is
sqrt(3/4pi) * (y, z, x). Coupling tensors are built from exact complex
Clebsch-Gordan coefficients via the real-harmonic change of basis and have
orthonormal rows, so each degree-l3 slice intertwines the Wigner rotation
matrices D(l) of the blocks: D(l3) C = C (D(l1) x D(l2)).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

LMAX = 2

_C1 = math.sqrt(3.0 / (4.0 * math.pi))
_C2XY = 0.5 * math.sqrt(15.0 / math.pi)
_C20 = 0.25 * math.sqrt(5.0 / math.pi)
_C22 = 0.25 * math.sqrt(15.0 / math.pi)

Y00 = 0.5 / math.sqrt(math.pi)


def sh_slice(l: int) -> slice:
    """Index range of the degree-l block inside a flattened SH vector."""
    return slice(l * l, (l + 1) * (l + 1))


def spherical_harmonics_batch(unit_vecs: np.ndarray) -> np.ndarray:
    """Vectorized harmonics for rows of unit vectors, shape (n, (LMAX+1)^2).

    Zero rows (degenerate coincident-point edges) yield the constant l=0
    component and zeros for l > 0.
    """
    v = np.asarray(unit_vecs, dtype=np.float64)
    norms = np.linalg.norm(v, axis=-1)
    ok = norms > 1e-10
    if np.any(np.abs(norms[ok] - 1.0) > 1e-6):
        raise ValidationError("rows must be unit vectors (or exactly zero)")
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.stack([
        np.full_like(x, Y00),
        _C1 * y, _C1 * z, _C1 * x,
        _C2XY * x * y,
        _C2XY * y * z,
        _C20 * (3.0 * z * z - 1.0),
        _C2XY * z * x,
        _C22 * (x * x - y * y),
    ], axis=-1)
    if not np.all(ok):
        out[~ok] = 0.0
        out[~ok, 0] = Y00
    return out


def _factorial(n: int) -> int:
    return math.factorial(n)


def _complex_cg(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    """<j1 m1 j2 m2 | j3 m3> in the Condon-Shortley convention (Racah)."""
    if m3 != m1 + m2 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    pre = math.sqrt(
        (2 * j3 + 1)
        * _factorial(j3 + j1 - j2) * _factorial(j3 - j1 + j2)
        * _factorial(j1 + j2 - j3) / _factorial(j1 + j2 + j3 + 1)
    )
    pre *= math.sqrt(
        _factorial(j3 + m3) * _factorial(j3 - m3)
        * _factorial(j1 - m1) * _factorial(j1 + m1)
        * _factorial(j2 - m2) * _factorial(j2 + m2)
    )
    total = 0.0
    for k in range(0, j1 + j2 - j3 + 1):
        denoms = (k, j1 + j2 - j3 - k, j1 - m1 - k, j2 + m2 - k,
                  j3 - j2 + m1 + k, j3 - j1 - m2 + k)
        if any(d < 0 for d in denoms):
            continue
        term = (-1.0) ** k
        for d in denoms:
            term /= _factorial(d)
        total += term
    return pre * total


def _real_basis_change(l: int) -> np.ndarray:
    """Unitary q with Y_complex = q @ Y_real, phased so couplings are real."""
    q = np.zeros((2 * l + 1, 2 * l + 1), dtype=np.complex128)
    for m in range(-l, 0):
        q[l + m, l + abs(m)] = 1.0 / math.sqrt(2.0)
        q[l + m, l - abs(m)] = -1j / math.sqrt(2.0)
    q[l, l] = 1.0
    for m in range(1, l + 1):
        q[l + m, l + abs(m)] = (-1.0) ** m / math.sqrt(2.0)
        q[l + m, l - abs(m)] = 1j * (-1.0) ** m / math.sqrt(2.0)
    return (-1j) ** l * q


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, l2: int, l3: int) -> np.ndarray:
    """Real coupling tensor C[m3, m1, m2] with orthonormal m3-rows.

    Contracting features u (degree l1) and v (degree l2) as
    w[m3] = sum C[m3, m1, m2] u[m1] v[m2] yields a degree-l3 feature.
    """
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        raise ValidationError(f"({l1}, {l2}) -> {l3} violates the triangle rule")
    cc = np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1), dtype=np.complex128)
    for i, m1 in enumerate(range(-l1, l1 + 1)):
        for j, m2 in enumerate(range(-l2, l2 + 1)):
            for k, m3 in enumerate(range(-l3, l3 + 1)):
                cc[i, j, k] = _complex_cg(l1, m1, l2, m2, l3, m3)
    q1 = _real_basis_change(l1)
    q2 = _real_basis_change(l2)
    q3 = _real_basis_change(l3)
    real = np.einsum("ia,jb,kc,ijk->abc", q1, q2, np.conj(q3), cc)
    if np.abs(real.imag).max() > 1e-12:
        raise AssertionError("real-basis coupling has residual imaginary part")
    out = np.ascontiguousarray(np.moveaxis(real.real, 2, 0))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def coupling_matrix(l1: int, l2: int, l3: int) -> np.ndarray:
    """`clebsch_gordan(l1, l2, l3)` as a (2l2+1, (2l1+1)(2l3+1)) matrix B
    with B[m2, m1 (2l3+1) + m3] = C[m3, m1, m2].

    Rows v of degree-l2 features times B, reshaped to (rows, 2l1+1, 2l3+1),
    give per row the matrix K with w = u @ K, as `clebsch_gordan` defines w.
    """
    c = clebsch_gordan(l1, l2, l3)
    out = c.transpose(2, 1, 0).reshape(2 * l2 + 1, -1)
    out.setflags(write=False)
    return out


def allowed_paths(lmax: int = LMAX, parity_even_only: bool = True) -> tuple[tuple[int, int, int], ...]:
    """Coupling paths (l_in, l_filter, l_out) within the triangle rule.

    With parity_even_only, paths with odd l_in + l_filter + l_out are
    dropped; this keeps every block at parity (-1)^l so the scalar output
    is invariant under point inversion as well as rotation.
    """
    paths = []
    for li in range(lmax + 1):
        for ls in range(lmax + 1):
            for lo in range(abs(li - ls), min(li + ls, lmax) + 1):
                if parity_even_only and (li + ls + lo) % 2 == 1:
                    continue
                paths.append((li, ls, lo))
    return tuple(paths)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random proper rotation via QR of a Gaussian matrix."""
    A = rng.normal(size=(3, 3))
    Q, upper = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(upper))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q
