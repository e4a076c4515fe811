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

PROTEIN_ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWYX")


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Fingerprint:
    bits: np.ndarray  # bool, length nbits
    nbits: int
    radius: int

    def to_hex(self) -> str:
        packed = np.packbits(self.bits.astype(np.uint8))
        return packed.tobytes().hex()


def _atom_invariant(element: str, degree: int, charge: int, aromatic: bool) -> int:
    return fnv1a64(f"atom|{element}|{degree}|{charge}|{int(aromatic)}".encode())


def morgan_fingerprint(mol: LigandMolecule, radius: int = 2, nbits: int = 2048) -> Fingerprint:
    """Iterative neighborhood-hashing fingerprint on the heavy-atom graph.

    Round 0 hashes the per-atom tuple (element, degree, formal charge,
    aromatic); each later round hashes (round, own code, sorted neighbor
    (bond order, code) pairs). Atoms without neighbors keep their code, so
    an isolated atom contributes exactly one bit. Every code from every
    round sets bit (code mod nbits). Coordinates never enter the hash.
    """
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    if nbits <= 0:
        raise ValidationError(f"nbits must be positive, got {nbits}")
    if not mol.atoms:
        raise ValidationError("molecule has no atoms")

    degrees = mol.degrees()
    adjacency = mol.neighbors()
    codes = [
        _atom_invariant(a.element, degrees[i], a.formal_charge, a.aromatic)
        for i, a in enumerate(mol.atoms)
    ]
    bits = np.zeros(nbits, dtype=bool)
    for c in codes:
        bits[c % nbits] = True

    for rnd in range(1, radius + 1):
        new_codes = list(codes)
        for i, nbrs in enumerate(adjacency):
            if not nbrs:
                continue
            env = sorted((order, codes[j]) for j, order in nbrs)
            payload = f"round|{rnd}|{codes[i]:016x}" + "".join(
                f"|{order}:{code:016x}" for order, code in env
            )
            new_codes[i] = fnv1a64(payload.encode())
        codes = new_codes
        for c in codes:
            bits[c % nbits] = True

    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both bitsets are empty."""
    if a.nbits != b.nbits:
        raise ValidationError(f"fingerprint widths differ: {a.nbits} vs {b.nbits}")
    union = int(np.count_nonzero(a.bits | b.bits))
    if union == 0:
        return 1.0
    inter = int(np.count_nonzero(a.bits & b.bits))
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
