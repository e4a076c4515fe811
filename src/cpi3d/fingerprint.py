"""Circular (Morgan/ECFP-style) fingerprints and set similarities.

The hash is pinned to 64-bit FNV-1a over a canonical byte encoding of the
atom environments so that bitsets are reproducible across platforms without
a cheminformatics toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chemio import LigandMolecule
from .errors import ValidationError

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_PRIME = np.uint64(FNV_PRIME)

PROTEIN_ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWYX")


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def _atom_invariant(element: str, degree: int, charge: int, aromatic: bool) -> int:
    return fnv1a64(f"atom|{element}|{degree}|{charge}|{int(aromatic)}".encode())


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _hex_digits(codes: np.ndarray) -> np.ndarray:
    """(n, 16) ASCII bytes of each code's `:016x` text."""
    octets = codes.astype(">u8").view(np.uint8).reshape(-1, 8)
    return _HEX[np.stack([octets >> 4, octets & 15], axis=2).reshape(-1, 16)]


def _fold(h: np.ndarray, data: np.ndarray) -> np.ndarray:
    """FNV-1a of each lane's state over the bytes in its row of `data`
    (the products wrap mod 2**64)."""
    for column in data.T:
        h = (h ^ column) * _PRIME
    return h


def morgan_fingerprints(mols, radius: int = 2, nbits: int = 2048) -> np.ndarray:
    """Iterative neighborhood-hashing fingerprints on the heavy-atom graphs,
    one bool row of `nbits` per molecule, hashed for all atoms of all
    molecules at once: a (len(mols), nbits) matrix, (0, nbits) for none.

    Round 0 hashes the per-atom tuple (element, degree, formal charge,
    aromatic) as the string `atom|{element}|{degree}|{charge}|{0 or 1}`;
    each later round r hashes `round|{r}|{own code:016x}` followed by
    `|{order}:{code:016x}` for every neighbor in ascending (bond order,
    code) order. Atoms without neighbors keep their code, so an isolated
    atom contributes exactly one bit. Every code from every round sets bit
    (code mod nbits). Coordinates never enter the hash.

    The hash is 64-bit FNV-1a over those bytes, computed on uint64 lanes,
    one per atom: a lane starts from the state after `round|{r}|` and folds
    the hex digits of its own code, then neighbor by neighbor the bytes of
    `|{order}:` and the neighbor's hex digits, so the codes equal the
    string-built ones bit for bit.
    """
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    if nbits <= 0:
        raise ValidationError(f"nbits must be positive, got {nbits}")
    if not mols:
        return np.zeros((0, nbits), dtype=bool)
    sizes = np.array([len(mol) for mol in mols], dtype=np.intp)
    if not sizes.all():
        raise ValidationError("molecule has no atoms")

    offsets = np.cumsum(sizes) - sizes
    mol_of = np.repeat(np.arange(len(mols)), sizes)
    bi, bj, order = np.concatenate([mol.bond_table + (off, off, 0)
                                    for mol, off in zip(mols, offsets.tolist())]).T
    degrees = np.bincount(bi, minlength=len(mol_of)) + np.bincount(bj, minlength=len(mol_of))

    elements, charges, aromatic = (np.concatenate([getattr(mol, name) for mol in mols]).tolist()
                                   for name in ("elements", "charges", "aromatic"))
    keys = list(zip(elements, degrees.tolist(), charges, aromatic))
    invariants = {key: _atom_invariant(*key) for key in set(keys)}
    codes = np.array([invariants[key] for key in keys], dtype=np.uint64)
    bits = np.zeros((len(mols), nbits), dtype=bool)
    bits[mol_of, (codes % np.uint64(nbits)).astype(np.intp)] = True

    # directed bonds (atom, neighbor, order); each distinct order is
    # folded through a row of `prefix`: the bytes of `|{order}:`
    src, nbr, order = np.concatenate([bi, bj]), np.concatenate([bj, bi]), np.tile(order, 2)
    orders, order_row = np.unique(order, return_inverse=True)
    texts = [f"|{o}:".encode() for o in orders.tolist()]
    width = max(map(len, texts), default=0)
    prefix = np.zeros((len(texts), width), dtype=np.uint64)
    prefix_len = np.array([len(t) for t in texts], dtype=np.intp)
    for row, text in zip(prefix, texts):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    first = np.cumsum(degrees) - degrees
    bonded = degrees > 0
    for rnd in range(1, radius + 1):
        # neighbors of each atom in ascending (order, code) order
        sort = np.lexsort((codes[nbr], order, src))
        atom, slot_row, slot_nbr = src[sort], order_row[sort], nbr[sort]
        rank = np.arange(len(sort)) - first[atom]
        digits = _hex_digits(codes)
        h = _fold(np.full(len(codes), fnv1a64(f"round|{rnd}|".encode()), dtype=np.uint64),
                  digits)
        for k in range(int(degrees.max(initial=0))):
            at = np.flatnonzero(rank == k)
            lanes, rows = h[atom[at]], slot_row[at]
            for c in range(width):
                lanes = np.where(prefix_len[rows] > c, (lanes ^ prefix[rows, c]) * _PRIME, lanes)
            h[atom[at]] = _fold(lanes, digits[slot_nbr[at]])
        codes = np.where(bonded, h, codes)
        bits[mol_of, (codes % np.uint64(nbits)).astype(np.intp)] = True

    return bits


def morgan_fingerprint(mol: LigandMolecule, radius: int = 2, nbits: int = 2048) -> np.ndarray:
    """The (nbits,) bit row of one molecule: `morgan_fingerprints` of a batch of one."""
    return morgan_fingerprints([mol], radius=radius, nbits=nbits)[0]


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| of two bool bit rows; 1.0 when both are empty."""
    if a.shape != b.shape:
        raise ValidationError(f"fingerprint widths differ: {a.size} vs {b.size}")
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    inter = int(np.count_nonzero(a & b))
    return inter / union


@dataclass(frozen=True)
class KmerSet:
    kmers: frozenset[str]
    k: int


def protein_kmer_set(sequence: str, k: int = 3) -> KmerSet:
    """Sliding-window k-mer set over the 21-letter amino-acid alphabet."""
    if len(sequence) < k:
        raise ValidationError(
            f"sequence length {len(sequence)} is shorter than k={k}"
        )
    bad = set(sequence) - PROTEIN_ALPHABET
    if bad:
        raise ValidationError(f"sequence contains invalid letters {sorted(bad)}")
    return KmerSet(
        kmers=frozenset(sequence[i:i + k] for i in range(len(sequence) - k + 1)),
        k=k,
    )


def jaccard(a: KmerSet, b: KmerSet) -> float:
    """|a AND b| / |a OR b|; 1.0 when both sets are empty."""
    if a.k != b.k:
        raise ValidationError(f"k mismatch: {a.k} vs {b.k}")
    union = len(a.kmers | b.kmers)
    if union == 0:
        return 1.0
    return len(a.kmers & b.kmers) / union
