import numpy as np
import pytest

from cpi3d.chemio import (
    load_manifest,
    parse_pdb,
    parse_pdb_atoms,
    parse_sdf,
    write_sdf,
)
from cpi3d.errors import EmptyStructureError, ParseError, ValidationError
from cpi3d.synthetic import random_complexes, write_manifest

from conftest import pdb_atom_line


def test_parse_pdb_single_ca():
    text = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 1.0, 2.0, 3.0, "C")
    prot = parse_pdb(text)
    assert len(prot.residues) == 1
    res = prot.residues[0]
    assert res.aa == "ALA"
    assert res.chain == "A" and res.seq_index == 1
    np.testing.assert_allclose(res.ca_position, [1.0, 2.0, 3.0])


def test_parse_pdb_first_altloc_wins():
    lines = [
        pdb_atom_line(1, "CA", "A", "GLY", "A", 5, 1.0, 1.0, 1.0, "C"),
        pdb_atom_line(2, "CA", "B", "GLY", "A", 5, 9.0, 9.0, 9.0, "C"),
    ]
    prot = parse_pdb("\n".join(lines))
    assert len(prot.residues) == 1
    np.testing.assert_allclose(prot.residues[0].ca_position, [1.0, 1.0, 1.0])


def test_parse_pdb_hetatm_only_is_empty():
    text = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 0, 0, 0, "C", record="HETATM")
    with pytest.raises(EmptyStructureError):
        parse_pdb(text)


def test_parse_pdb_counts_and_ordering():
    lines = [
        pdb_atom_line(1, "CA", " ", "ALA", "B", 2, 0, 0, 0, "C"),
        pdb_atom_line(2, "CB", " ", "ALA", "B", 2, 1, 1, 1, "C"),   # not CA
        pdb_atom_line(3, "CA", " ", "GLY", "A", 7, 2, 2, 2, "C"),
        pdb_atom_line(4, "CA", " ", "XYZ", "A", 3, 3, 3, 3, "C"),   # non-standard
    ]
    prot = parse_pdb("\n".join(lines))
    keys = [(r.chain, r.seq_index) for r in prot.residues]
    assert keys == [("A", 3), ("A", 7), ("B", 2)]
    assert prot.residues[0].aa == "UNK"
    assert prot.sequence == "XG" + "A"


def test_parse_pdb_residue_count_matches_distinct_keys(rng):
    lines = []
    keys = set()
    serial = 0
    for _ in range(40):
        chain = str(rng.choice(["A", "B"]))
        seq = int(rng.integers(1, 15))
        keys.add((chain, seq))
        serial += 1
        lines.append(pdb_atom_line(serial, "CA", " ", "LEU", chain, seq,
                                   rng.uniform(-9, 9), rng.uniform(-9, 9),
                                   rng.uniform(-9, 9), "C"))
    prot = parse_pdb("\n".join(lines))
    assert len(prot.residues) == len(keys)


def test_parse_pdb_malformed_coordinate_reports_line():
    good = pdb_atom_line(1, "CA", " ", "ALA", "A", 1, 0, 0, 0, "C")
    bad = pdb_atom_line(2, "CA", " ", "ALA", "A", 2, 0, 0, 0, "C")
    bad = bad[:30] + "  xx.xxx" + bad[38:]
    with pytest.raises(ParseError) as err:
        parse_pdb(good + "\n" + bad)
    assert err.value.line == 2


def test_parse_pdb_pure():
    text = "\n".join(
        pdb_atom_line(i + 1, "CA", " ", "VAL", "A", i + 1, i, 2 * i, 3 * i, "C")
        for i in range(5)
    )
    a, b = parse_pdb(text), parse_pdb(text)
    assert a.sequence == b.sequence
    np.testing.assert_array_equal(a.ca_coords(), b.ca_coords())


def _sdf_record(title, atoms, bonds, props=()):
    lines = [title, "  gen", ""]
    lines.append(f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for x, y, z, el in atoms:
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {el:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j, order in bonds:
        lines.append(f"{i:3d}{j:3d}{order:3d}  0")
    lines.extend(props)
    lines.append("M  END")
    lines.append("$$$$")
    return "\n".join(lines)


METHANE = _sdf_record("methane", [
    (0.0, 0.0, 0.0, "C"),
    (0.6, 0.6, 0.6, "H"),
    (-0.6, -0.6, 0.6, "H"),
    (0.6, -0.6, -0.6, "H"),
    (-0.6, 0.6, -0.6, "H"),
], [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)])

ETHANE = _sdf_record("ethane", [
    (0.0, 0.0, 0.0, "C"),
    (1.5, 0.0, 0.0, "C"),
    (-0.5, 0.9, 0.0, "H"),
    (-0.5, -0.9, 0.0, "H"),
    (-0.5, 0.0, 0.9, "H"),
    (2.0, 0.9, 0.0, "H"),
    (2.0, -0.9, 0.0, "H"),
    (2.0, 0.0, -0.9, "H"),
], [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (2, 6, 1), (2, 7, 1), (2, 8, 1)])


def test_parse_sdf_methane_strips_hydrogens():
    mols = parse_sdf(METHANE)
    assert len(mols) == 1
    assert len(mols[0].atoms) == 1
    assert mols[0].atoms[0].element == "C"
    assert len(mols[0].bonds) == 0


def test_parse_sdf_ethane_remaps_bonds():
    (mol,) = parse_sdf(ETHANE)
    assert [a.element for a in mol.atoms] == ["C", "C"]
    assert len(mol.bonds) == 1
    b = mol.bonds[0]
    assert {b.i, b.j} == {0, 1} and b.order == 1


def test_parse_sdf_two_records():
    mols = parse_sdf(METHANE + "\n" + ETHANE)
    assert [m.id for m in mols] == ["methane", "ethane"]


def test_parse_sdf_count_mismatch():
    broken = METHANE.replace("  5  4", "  6  4")
    with pytest.raises(ParseError):
        parse_sdf(broken)


def test_parse_sdf_unknown_element():
    bad = _sdf_record("bad", [(0.0, 0.0, 0.0, "Xx")], [])
    with pytest.raises(ParseError):
        parse_sdf(bad)


def test_parse_sdf_aromatic_flag():
    ring = _sdf_record("ring", [
        (0.0, 0.0, 0.0, "C"), (1.4, 0.0, 0.0, "C"), (2.1, 1.2, 0.0, "C"),
        (1.4, 2.4, 0.0, "C"), (0.0, 2.4, 0.0, "C"), (-0.7, 1.2, 0.0, "C"),
    ], [(1, 2, 4), (2, 3, 4), (3, 4, 4), (4, 5, 4), (5, 6, 4), (6, 1, 4)])
    (mol,) = parse_sdf(ring)
    assert all(a.aromatic for a in mol.atoms)
    assert all(b.order == 4 for b in mol.bonds)


def test_parse_sdf_m_chg_override():
    rec = _sdf_record("charged", [(0.0, 0.0, 0.0, "N"), (1.3, 0.0, 0.0, "O")],
                      [(1, 2, 1)], props=["M  CHG  2   1   1   2  -1"])
    (mol,) = parse_sdf(rec)
    assert mol.atoms[0].formal_charge == 1
    assert mol.atoms[1].formal_charge == -1


def test_sdf_round_trip(rng):
    from cpi3d.synthetic import random_ligand
    for k in range(5):
        mol = random_ligand(rng, mol_id=f"m{k}")
        text = write_sdf(mol)
        (back,) = parse_sdf(text)
        assert len(back.atoms) == len(mol.atoms)
        for a, b in zip(mol.atoms, back.atoms):
            assert a.element == b.element
            np.testing.assert_allclose(a.position, b.position, atol=5e-5)
            assert a.formal_charge == b.formal_charge
        assert back.bonds == mol.bonds
        # a second pass is byte-stable
        assert write_sdf(back) == write_sdf(parse_sdf(write_sdf(back))[0])


def test_parse_pdb_atoms_full_detail():
    lines = [
        pdb_atom_line(1, "N", " ", "ALA", "A", 1, 0.0, 0.0, 0.0, "N"),
        pdb_atom_line(2, "CA", " ", "ALA", "A", 1, 1.5, 0.0, 0.0, "C"),
        pdb_atom_line(3, "O", " ", "ALA", "A", 1, 2.0, 1.0, 0.0, "O"),
        pdb_atom_line(4, "H", " ", "ALA", "A", 1, -0.5, 0.5, 0.0, "H"),
        pdb_atom_line(5, "CA", "B", "ALA", "A", 1, 9.0, 9.0, 9.0, "C"),  # altloc dup
    ]
    atoms = parse_pdb_atoms("\n".join(lines))
    assert [a.element for a in atoms] == ["N", "C", "O"]
    np.testing.assert_allclose(atoms[1].position, [1.5, 0.0, 0.0])


def test_load_manifest_round_trip(tmp_path):
    records = random_complexes(3, seed=7, with_label=True)
    records[1].upstream_confidence = 0.87
    manifest = write_manifest(records, str(tmp_path))
    loaded = load_manifest(manifest)
    assert [r.complex_id for r in loaded] == [r.complex_id for r in records]
    assert loaded[1].upstream_confidence == 0.87
    assert loaded[0].label_ec50_nm == pytest.approx(records[0].label_ec50_nm)
    for orig, back in zip(records, loaded):
        assert len(back.ligand.atoms) == len(orig.ligand.atoms)
        assert back.protein.sequence == orig.protein.sequence


def test_load_manifest_rejects_nonpositive_ec50(tmp_path):
    records = random_complexes(1, seed=3)
    manifest = write_manifest(records, str(tmp_path))
    text = open(manifest).read().replace("toy0.pdb,,", "toy0.pdb,0,")
    open(manifest, "w").write(text)
    with pytest.raises(ValidationError):
        load_manifest(manifest)


def test_load_manifest_missing_file_names_row(tmp_path):
    records = random_complexes(1, seed=3)
    manifest = write_manifest(records, str(tmp_path))
    (tmp_path / "toy0.sdf").unlink()
    with pytest.raises(FileNotFoundError, match="toy0"):
        load_manifest(manifest)


def test_load_manifest_rejects_duplicate_complex_id(tmp_path):
    records = random_complexes(3, seed=7)
    manifest = write_manifest(records, str(tmp_path))
    lines = open(manifest).read().splitlines()
    open(manifest, "w").write("\n".join(lines + [lines[1]]) + "\n")   # toy0 again as row 4
    with pytest.raises(ValidationError, match=r"row 4: duplicate complex_id 'toy0'"):
        load_manifest(manifest)


def test_load_manifest_multi_pose(tmp_path):
    records = random_complexes(1, seed=11)
    rec = records[0]
    rec.poses = (rec.ligand, rec.ligand)
    manifest = write_manifest([rec], str(tmp_path))
    (loaded,) = load_manifest(manifest)
    assert len(loaded.poses) == 2
