import numpy as np
import pytest

from cpi3d.chemio import AROMATIC_BOND, Atom, Bond, LigandMolecule
from cpi3d.errors import ValidationError
from cpi3d.fingerprint import (
    fnv1a64,
    jaccard,
    morgan_fingerprint,
    morgan_fingerprints,
    protein_kmer_set,
    tanimoto,
)
from cpi3d.synthetic import random_ligand

from oracles import morgan_oracle


def _chain(elements, orders=None, mol_id="chain"):
    atoms = tuple(
        Atom(element=e, position=np.array([1.5 * i, 0.0, 0.0]))
        for i, e in enumerate(elements)
    )
    orders = orders or [1] * (len(elements) - 1)
    bonds = tuple(Bond(i=i, j=i + 1, order=orders[i]) for i in range(len(elements) - 1))
    return LigandMolecule(id=mol_id, atoms=atoms, bonds=bonds)


def _random_molecule(rng, n_atoms):
    """Random heavy-atom graph: charges -3..3, some isolated atoms, bond
    orders including 0 and the multi-digit 12, aromatic atoms on aromatic
    bonds."""
    pairs = [(i, j) for i in range(n_atoms) for j in range(i + 1, n_atoms)
             if rng.random() < 2.5 / n_atoms]
    orders = [int(rng.choice([0, 1, 1, 2, 3, AROMATIC_BOND, 5, 12])) for _ in pairs]
    aromatic = {k for (i, j), o in zip(pairs, orders) if o == AROMATIC_BOND for k in (i, j)}
    atoms = tuple(Atom(element=str(rng.choice(["C", "N", "O", "S", "Cl"])),
                       position=rng.normal(size=3), formal_charge=int(rng.integers(-3, 4)),
                       aromatic=i in aromatic) for i in range(n_atoms))
    bonds = tuple(Bond(i=i, j=j, order=o) for (i, j), o in zip(pairs, orders))
    return LigandMolecule(id="random", atoms=atoms, bonds=bonds)


def test_single_atom_sets_exactly_one_bit():
    mol = LigandMolecule(id="c", atoms=(Atom("C", np.zeros(3)),), bonds=())
    fp = morgan_fingerprint(mol, radius=2)
    assert fp.shape == (2048,) and fp.dtype == bool
    assert np.count_nonzero(fp) == 1


def test_determinism():
    mol = _chain(["C", "N", "O"])
    a = morgan_fingerprint(mol)
    b = morgan_fingerprint(mol)
    np.testing.assert_array_equal(a, b)


def test_ethane_vs_propane_matches_reference():
    ethane = _chain(["C", "C"], mol_id="ethane")
    propane = _chain(["C", "C", "C"], mol_id="propane")
    fp_e = morgan_fingerprint(ethane)
    fp_p = morgan_fingerprint(propane)
    np.testing.assert_array_equal(fp_e, morgan_oracle(ethane))
    np.testing.assert_array_equal(fp_p, morgan_oracle(propane))
    assert not np.array_equal(fp_e, fp_p)
    # both have a degree-1 carbon, so the round-0 terminal invariant is shared
    terminal = fnv1a64(b"atom|C|1|0|0") % 2048
    assert fp_e[terminal] and fp_p[terminal]


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
            morgan_fingerprint(mol), morgan_fingerprint(shuffled)
        )


def test_coordinate_invariance(rng):
    mol = random_ligand(rng, n_atoms=6)
    moved = LigandMolecule(id="m", atoms=tuple(
        Atom(a.element, a.position + 42.0, a.formal_charge, a.aromatic)
        for a in mol.atoms
    ), bonds=mol.bonds)
    np.testing.assert_array_equal(
        morgan_fingerprint(mol), morgan_fingerprint(moved)
    )


def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@pytest.mark.parametrize("nbits", [1, 7, 2048])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_batch_matches_the_string_built_oracle(radius, nbits):
    """One mixed batch (isolated atoms, charges -3..3, aromatic bonds, bond
    orders 0, 5 and 12) equals the oracle row for row, and a batch of one
    equals its row."""
    rng = np.random.default_rng(100 * radius + nbits)
    mols = [_random_molecule(rng, int(n)) for n in rng.integers(1, 14, size=40)]
    mols.append(LigandMolecule(id="lone", atoms=(Atom("N", np.zeros(3), -3),), bonds=()))
    assert any(b.order in (0, 5, 12) for m in mols for b in m.bonds)
    assert any(a.aromatic for m in mols for a in m.atoms)
    assert any(0 in m.degrees() for m in mols if len(m.atoms) > 1)
    fps = morgan_fingerprints(mols, radius=radius, nbits=nbits)
    assert fps.shape == (len(mols), nbits) and fps.dtype == bool
    for mol, fp in zip(mols, fps):
        np.testing.assert_array_equal(fp, morgan_oracle(mol, radius, nbits))
    np.testing.assert_array_equal(morgan_fingerprint(mols[3], radius, nbits), fps[3])


def test_argument_errors():
    mol = _chain(["C", "C"])
    with pytest.raises(ValidationError, match=r"^radius must be >= 0, got -1$"):
        morgan_fingerprint(mol, radius=-1)
    with pytest.raises(ValidationError, match=r"^nbits must be positive, got 0$"):
        morgan_fingerprint(mol, nbits=0)
    empty = LigandMolecule(id="empty", atoms=(), bonds=())
    for batch in ([empty], [empty, mol], [mol, empty, mol], [mol, empty]):
        with pytest.raises(ValidationError, match=r"^molecule has no atoms$"):
            morgan_fingerprints(batch)
    none = morgan_fingerprints([], nbits=7)
    assert none.shape == (0, 7) and none.dtype == bool


def _fp_from_bits(on_bits, nbits=16):
    bits = np.zeros(nbits, dtype=bool)
    bits[list(on_bits)] = True
    return bits


def test_tanimoto_cases():
    a = _fp_from_bits({1, 2, 3})
    b = _fp_from_bits({2, 3, 4})
    assert tanimoto(a, a) == 1.0
    assert tanimoto(a, _fp_from_bits({5, 6})) == 0.0
    assert tanimoto(a, b) == 0.5
    assert tanimoto(_fp_from_bits(set()), _fp_from_bits(set())) == 1.0
    with pytest.raises(ValidationError, match=r"^fingerprint widths differ: 16 vs 8$"):
        tanimoto(a, np.zeros(8, dtype=bool))


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
