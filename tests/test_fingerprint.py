import numpy as np
import pytest

from cpi3d.chemio import Atom, Bond, LigandMolecule
from cpi3d.errors import ValidationError
from cpi3d.fingerprint import (
    Fingerprint,
    fnv1a64,
    jaccard,
    morgan_fingerprint,
    protein_kmer_set,
    tanimoto,
)
from cpi3d.synthetic import random_ligand


def _chain(elements, orders=None, mol_id="chain"):
    atoms = tuple(
        Atom(element=e, position=np.array([1.5 * i, 0.0, 0.0]))
        for i, e in enumerate(elements)
    )
    orders = orders or [1] * (len(elements) - 1)
    bonds = tuple(Bond(i=i, j=i + 1, order=orders[i]) for i in range(len(elements) - 1))
    return LigandMolecule(id=mol_id, atoms=atoms, bonds=bonds)


def reference_bits(mol, radius=2, nbits=2048):
    """Oracle: the documented hashing scheme written out longhand."""
    adj = [[] for _ in mol.atoms]
    for b in mol.bonds:
        adj[b.i].append((b.j, b.order))
        adj[b.j].append((b.i, b.order))
    deg = [len(a) for a in adj]
    codes = []
    for i, a in enumerate(mol.atoms):
        payload = f"atom|{a.element}|{deg[i]}|{a.formal_charge}|{int(a.aromatic)}"
        codes.append(fnv1a64(payload.encode()))
    on = {c % nbits for c in codes}
    for rnd in range(1, radius + 1):
        nxt = []
        for i in range(len(mol.atoms)):
            if not adj[i]:
                nxt.append(codes[i])
                continue
            env = sorted((order, codes[j]) for j, order in adj[i])
            payload = f"round|{rnd}|{codes[i]:016x}" + "".join(
                f"|{o}:{c:016x}" for o, c in env
            )
            nxt.append(fnv1a64(payload.encode()))
        codes = nxt
        on |= {c % nbits for c in codes}
    return on


def test_single_atom_sets_exactly_one_bit():
    mol = LigandMolecule(id="c", atoms=(Atom("C", np.zeros(3)),), bonds=())
    fp = morgan_fingerprint(mol, radius=2)
    assert np.count_nonzero(fp.bits) == 1


def test_determinism():
    mol = _chain(["C", "N", "O"])
    a = morgan_fingerprint(mol)
    b = morgan_fingerprint(mol)
    np.testing.assert_array_equal(a.bits, b.bits)


def test_ethane_vs_propane_matches_reference():
    ethane = _chain(["C", "C"], mol_id="ethane")
    propane = _chain(["C", "C", "C"], mol_id="propane")
    fp_e = morgan_fingerprint(ethane)
    fp_p = morgan_fingerprint(propane)
    assert set(np.flatnonzero(fp_e.bits).tolist()) == reference_bits(ethane)
    assert set(np.flatnonzero(fp_p.bits).tolist()) == reference_bits(propane)
    assert not np.array_equal(fp_e.bits, fp_p.bits)
    # both have a degree-1 carbon, so the round-0 terminal invariant is shared
    terminal = fnv1a64(b"atom|C|1|0|0") % 2048
    assert fp_e.bits[terminal] and fp_p.bits[terminal]


def test_permutation_invariance(rng):
    for _ in range(10):
        mol = random_ligand(rng, n_atoms=8)
        perm = rng.permutation(len(mol.atoms))
        inverse = np.argsort(perm)
        atoms = tuple(mol.atoms[perm[i]] for i in range(len(mol.atoms)))
        bonds = tuple(
            Bond(i=int(inverse[b.i]), j=int(inverse[b.j]), order=b.order)
            for b in mol.bonds
        )
        shuffled = LigandMolecule(id="perm", atoms=atoms, bonds=bonds)
        np.testing.assert_array_equal(
            morgan_fingerprint(mol).bits, morgan_fingerprint(shuffled).bits
        )


def test_coordinate_invariance(rng):
    mol = random_ligand(rng, n_atoms=6)
    moved = LigandMolecule(id="m", atoms=tuple(
        Atom(a.element, a.position + 42.0, a.formal_charge, a.aromatic)
        for a in mol.atoms
    ), bonds=mol.bonds)
    np.testing.assert_array_equal(
        morgan_fingerprint(mol).bits, morgan_fingerprint(moved).bits
    )


def test_argument_errors():
    mol = _chain(["C", "C"])
    with pytest.raises(ValidationError):
        morgan_fingerprint(mol, radius=-1)
    with pytest.raises(ValidationError):
        morgan_fingerprint(mol, nbits=0)


def _fp_from_bits(on_bits, nbits=16):
    bits = np.zeros(nbits, dtype=bool)
    bits[list(on_bits)] = True
    return Fingerprint(bits=bits, nbits=nbits, radius=2)


def test_tanimoto_cases():
    a = _fp_from_bits({1, 2, 3})
    b = _fp_from_bits({2, 3, 4})
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, _fp_from_bits({5, 6})) == 0.0
    assert tanimoto(a, b) == 0.5
    assert tanimoto(_fp_from_bits(set()), _fp_from_bits(set())) == 1.0
    with pytest.raises(ValidationError):
        tanimoto(a, Fingerprint(bits=np.zeros(8, dtype=bool), nbits=8, radius=2))


def test_tanimoto_symmetry_and_bounds(rng):
    for _ in range(50):
        a = _fp_from_bits(set(rng.integers(0, 16, size=5).tolist()))
        b = _fp_from_bits(set(rng.integers(0, 16, size=5).tolist()))
        s = tanimoto(a, b)
        assert s == tanimoto(b, a)
        assert 0.0 <= s <= 1.0


def test_kmer_sets_and_jaccard():
    assert protein_kmer_set("AAAA", k=3).kmers == frozenset({"AAA"})
    assert jaccard(protein_kmer_set("AAAA"), protein_kmer_set("AAAA")) == 1.0
    assert jaccard(protein_kmer_set("ACD"), protein_kmer_set("WYF")) == 0.0
    assert jaccard(protein_kmer_set("ACDE"), protein_kmer_set("CDEF")) == pytest.approx(1 / 3)
    with pytest.raises(ValidationError):
        protein_kmer_set("AC", k=3)
    with pytest.raises(ValidationError):
        protein_kmer_set("AB1", k=3)
