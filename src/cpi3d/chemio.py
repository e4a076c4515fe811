"""Parsers for protein (PDB) and ligand (SDF V2000) structure files.

Only the fields the pipeline consumes are extracted: alpha-carbon positions
and residue identities, or heavy-atom elements and positions, on the protein
side, heavy atoms with connectivity on the ligand side. All parsers are pure
functions of their input bytes. They read the fixed-column fields of one or
more texts in array passes over a `_LineTable`; a text the passes cannot
read bit for bit as the per-line parse does, an invalid one included, goes
through that per-line parse, which names the first bad field and its line.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyStructureError, ParseError, ValidationError

AMINO_ACIDS_3TO1 = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}
UNKNOWN_AA = "UNK"
UNKNOWN_AA_1 = "X"

ELEMENT_SYMBOLS = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U".split()
)

# MDL atom-block charge codes (field value -> formal charge)
_SDF_CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}
_SDF_CHARGE_FIELDS = {v: k for k, v in _SDF_CHARGE_CODES.items() if k != 4}

AROMATIC_BOND = 4


def _position_fault(positions) -> tuple[int, str] | None:
    """(index, reason) of the first position that is not three finite
    numbers, or None; all positions are checked as one array when they
    stack into an (n, 3) numeric array."""
    try:
        xyz = np.array(positions)
    except ValueError:  # ragged
        xyz = None
    if xyz is not None and xyz.dtype.kind in "biuf" and xyz.shape == (len(positions), 3):
        finite = np.isfinite(xyz).all(axis=1)
        return None if finite.all() else (int(np.argmin(finite)), "non-finite")
    for i, position in enumerate(positions):
        try:
            p = np.asarray(position)
        except ValueError:
            return i, "shape"
        if p.dtype.kind not in "biuf" or p.shape != (3,):
            return i, "shape"
        if not np.isfinite(p).all():
            return i, "non-finite"
    return None


@dataclass(frozen=True)
class Residue:
    """One residue as an object; `ProteinStructure` takes these as input
    and hands them out, but holds its residues as arrays."""
    aa: str                # three-letter code, UNK for non-standard
    chain: str
    seq_index: int
    ca_position: np.ndarray


def _read_only(array) -> np.ndarray:
    array.setflags(write=False)
    return array


def _first_repeat(major: np.ndarray, minor: np.ndarray) -> int:
    """Index of the first row whose key (major, minor) repeats an earlier
    row's, or the row count; a stable sort by key puts each key's first row
    before its repeats."""
    order = np.lexsort((minor, major))
    later = order[1:][(major[order[1:]] == major[order[:-1]])
                      & (minor[order[1:]] == minor[order[:-1]])]
    return int(later.min()) if later.size else len(major)


@dataclass(frozen=True, init=False, eq=False)
class ProteinStructure:
    """A protein's residues as read-only arrays, one entry per residue.

    Built from `residues` (a sequence of `Residue`) or from the four arrays
    themselves; both are checked in one pass: at least one residue, then,
    at the first residue whose key (chain, seq_index) repeats an earlier one
    or whose CA position is not three finite numbers, the duplicate key
    before the position.
    """
    id: str
    aa: np.ndarray          # (n,) three-letter codes, UNK for non-standard
    chain: np.ndarray       # (n,) str
    seq_index: np.ndarray   # (n,) int64
    ca: np.ndarray          # (n, 3) float64 CA positions

    def __init__(self, id: str, residues=None, *, aa=(), chain=(), seq_index=(), ca=()):
        if residues is not None:
            aa = [r.aa for r in residues]
            chain = [r.chain for r in residues]
            seq_index = [r.seq_index for r in residues]
            ca = [r.ca_position for r in residues]
        if not len(aa):
            raise EmptyStructureError("protein has no residues")
        chain = np.array(chain, dtype=str)
        seq_index = np.array(seq_index, dtype=np.int64)
        fault = _position_fault(ca)
        bad = len(aa) if fault is None else fault[0]
        k = _first_repeat(chain, seq_index)
        if k < len(aa) and k <= bad:
            raise ValidationError(f"duplicate residue key {(chain[k].item(), seq_index[k].item())}")
        if fault is not None:
            key = (chain[bad].item(), seq_index[bad].item())
            if fault[1] == "shape":
                raise ValidationError(f"CA position for {key} is not three numbers")
            raise ValidationError(f"non-finite CA position for {key}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "aa", _read_only(np.array(aa, dtype=str)))
        object.__setattr__(self, "chain", _read_only(chain))
        object.__setattr__(self, "seq_index", _read_only(seq_index))
        object.__setattr__(self, "ca", _read_only(np.array(ca, dtype=np.float64)))

    def __len__(self):
        return len(self.aa)

    def renamed(self, id: str) -> "ProteinStructure":
        """The same residue arrays under another id."""
        other = object.__new__(ProteinStructure)
        other.__dict__.update(self.__dict__, id=id)
        return other

    @property
    def residues(self) -> tuple[Residue, ...]:
        """The residues as `Residue` objects, built on each call."""
        return tuple(Residue(aa=a, chain=c, seq_index=i, ca_position=p) for a, c, i, p in
                     zip(self.aa.tolist(), self.chain.tolist(), self.seq_index.tolist(), self.ca))

    @property
    def sequence(self) -> str:
        """One-letter sequence over the 21-letter alphabet (X = non-standard)."""
        return "".join([AMINO_ACIDS_3TO1.get(a, UNKNOWN_AA_1) for a in self.aa.tolist()])

    def ca_coords(self) -> np.ndarray:
        return self.ca


@dataclass(frozen=True)
class HeavyAtoms:
    """The non-hydrogen ATOM records of a full-detail protein parse: one
    element symbol and one (x, y, z) row per atom."""
    elements: tuple[str, ...]
    positions: np.ndarray   # (n, 3) float64

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True, slots=True)
class Atom:
    """One ligand atom as an object; `LigandMolecule` takes these as input
    and hands them out, but holds its atoms as arrays."""
    element: str
    position: np.ndarray
    formal_charge: int = 0
    aromatic: bool = False


class Bond(NamedTuple):
    i: int
    j: int
    order: int  # 1, 2, 3 or AROMATIC_BOND (4)


@dataclass(frozen=True, init=False, eq=False)
class LigandMolecule:
    """A ligand's heavy atoms and bonds as read-only arrays.

    Built from `atoms` (a sequence of `Atom`) or from the four atom arrays
    themselves (charges 0 and flags False unless given), with `bonds` as
    `Bond`s or (i, j, order) rows; both are checked in one pass: at the
    first bond whose endpoints are not two distinct atoms or whose atom
    pair repeats an earlier bond, the endpoints before the repeat; then
    the atoms before the first hydrogen for positions that are not three
    finite numbers; then hydrogens, which must be stripped.
    """
    id: str
    elements: np.ndarray    # (n,) element symbols
    positions: np.ndarray   # (n, 3) float64
    charges: np.ndarray     # (n,) int64 formal charges
    aromatic: np.ndarray    # (n,) bool
    bond_table: np.ndarray  # (m, 3) int64 rows (i, j, order)

    def __init__(self, id: str, atoms=None, bonds=(), *, elements=(), positions=(),
                 charges=0, aromatic=False):
        if atoms is not None:
            elements = [a.element for a in atoms]
            positions = [a.position for a in atoms]
            charges = [a.formal_charge for a in atoms]
            aromatic = [a.aromatic for a in atoms]
        n = len(elements)
        table = np.array(bonds, dtype=np.int64).reshape(-1, 3)
        lo, hi = table[:, :2].min(axis=1), table[:, :2].max(axis=1)
        invalid = np.flatnonzero((lo < 0) | (hi >= n) | (lo == hi))
        k = _first_repeat(lo, hi)
        if invalid.size and invalid[0] <= k:
            raise ValidationError(f"bond ({table[invalid[0], 0]},{table[invalid[0], 1]}) "
                                  "has invalid endpoints")
        if k < len(table):
            raise ValidationError(f"duplicate bond {(lo[k].item(), hi[k].item())}")
        elements = np.array(elements, dtype=str)
        hydrogens = np.flatnonzero(elements == "H")
        hydrogen = hydrogens[0] if hydrogens.size else n
        fault = _position_fault(positions)
        if fault is not None and fault[0] < hydrogen:
            if fault[1] == "shape":
                raise ValidationError(f"atom {fault[0]} position is not three numbers")
            raise ValidationError("non-finite atom position")
        if hydrogen < n:
            raise ValidationError("hydrogens must be stripped before construction")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "elements", _read_only(elements))
        object.__setattr__(self, "positions",
                           _read_only(np.array(positions, dtype=np.float64).reshape(-1, 3)))
        object.__setattr__(self, "charges", _read_only(np.full(n, charges, dtype=np.int64)))
        object.__setattr__(self, "aromatic", _read_only(np.full(n, aromatic, dtype=bool)))
        object.__setattr__(self, "bond_table", _read_only(table))

    def __len__(self):
        return len(self.elements)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as `Atom` objects, built on each call."""
        return tuple(Atom(element=e, position=p, formal_charge=c, aromatic=a) for e, p, c, a in
                     zip(self.elements.tolist(), self.positions, self.charges.tolist(),
                         self.aromatic.tolist()))

    @property
    def bonds(self) -> tuple[Bond, ...]:
        """The bonds as `Bond` tuples, built on each call."""
        return tuple(Bond(*row) for row in self.bond_table.tolist())

    def coords(self) -> np.ndarray:
        return self.positions

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Per atom: list of (neighbor index, bond order)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(len(self))]
        for i, j, order in self.bond_table.tolist():
            adj[i].append((j, order))
            adj[j].append((i, order))
        return adj

    def degrees(self) -> np.ndarray:
        """(n,) int64 number of bonds at each atom."""
        return np.bincount(self.bond_table[:, :2].ravel(), minlength=len(self))


@dataclass
class ComplexRecord:
    """One compound-protein pair, possibly with several docked poses."""
    complex_id: str
    ligand: LigandMolecule
    protein: ProteinStructure
    poses: tuple[LigandMolecule, ...] = ()
    label_ec50_nm: float | None = None
    is_active: bool | None = None

    def __post_init__(self):
        if not self.poses:
            self.poses = (self.ligand,)
        if self.label_ec50_nm is not None and not self.label_ec50_nm > 0:
            raise ValidationError(
                f"{self.complex_id}: ec50 must be positive, got {self.label_ec50_nm}"
            )


def _as_text(data) -> str:
    """`data` as text, without one leading UTF-8 byte-order mark."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return data.removeprefix("\ufeff")


# the columns the array passes read: PDB fields end at 78, SDF fields at 39,
# and a row of either reads as uint32 and uint64 words
_PDB_WIDTH, _SDF_WIDTH = 80, 40
_SPACE = 32
# a field of digits, spaces, signs and points reads the same through
# `astype` as through `float()` or `int()`, or fails both
_DIGIT_0, _DIGIT_9 = ord("0"), ord("9")
_CHAIN = np.array([chr(b) if 32 < b < 127 else "" for b in range(256)])  # a byte, stripped


def _word(text: bytes) -> int:
    """Four bytes as the uint32 a `_LineTable` row's column group reads."""
    return int(np.frombuffer(text, dtype=np.uint32)[0])


_ATOM_WORD = _word(b"ATOM")
_CA_WORDS = (_word(b" CA "), _word(b"CA  "), _word(b"  CA"))


class _LineTable:
    """The lines of one or more texts as a padded byte matrix.

    `rows[k]` holds the first `width` bytes of line k, padded with spaces;
    `file[k]` is the index of its text, text f owns lines `first[f]` to
    `first[f + 1]`, and `line(k)` reads line k whole. A text is `plain` when the
    array passes read it as the per-line parse does: after one leading
    byte-order mark, printable ASCII in lines that end in LF or CRLF. A
    `str` text must be ASCII, and None stands for a text that could not be
    read; both are left to the per-line parse.
    """

    def __init__(self, texts, width: int):
        pieces, plain = [], []
        for text in texts:
            if isinstance(text, str):
                text = text.removeprefix("\ufeff")
                text = text.encode("ascii") if text.isascii() else None
            plain.append(text is not None)
            text = (text or b"").removeprefix(b"\xef\xbb\xbf")
            pieces.append(text + b"\n" if text and not text.endswith(b"\n") else text)
        bounds = np.cumsum([0] + [len(piece) for piece in pieces])
        # the spaces after the last newline pad the last line's row
        self.buf = b"".join(pieces + [b" " * width])
        data = np.frombuffer(self.buf, dtype=np.uint8)
        newline = np.flatnonzero(data == 10)
        self.start = np.concatenate(([0], newline[:-1] + 1))[:len(newline)]
        # a CR before a newline ends its line; data[-1] is a space, not a CR
        self.stop = newline - (data[newline - 1] == 13)
        # a byte a per-line parse may read otherwise: a control byte (a tab, a
        # line break of `str.splitlines`, a CR not before a newline) or one
        # outside ASCII
        odd = np.flatnonzero(data[:bounds[-1]] - np.uint8(_SPACE) > 126 - _SPACE)
        odd = odd[(data[odd] != 10) & ((data[odd] != 13) | (data[odd + 1] != 10))]
        self.plain = np.array(plain, dtype=bool)
        self.plain[np.searchsorted(bounds, odd, "right") - 1] = False
        self.first = np.searchsorted(newline, bounds)
        self.file = np.repeat(np.arange(len(pieces)), np.diff(self.first))
        # row k is the `width` bytes from line k's start, blanked past its end
        self.rows = np.ndarray((len(data) - width + 1, width), np.uint8, self.buf,
                               strides=(1, 1))[self.start]
        self.rows[np.arange(width) >= (self.stop - self.start)[:, None]] = _SPACE

    def line(self, k: int) -> str:
        return self.buf[self.start[k]:self.stop[k]].decode("ascii")

    def lineno(self, k: int) -> int:
        """Line k's 1-based number in its text."""
        return int(k - self.first[self.file[k]]) + 1

    def split(self, file: np.ndarray, columns, bad: np.ndarray) -> list:
        """Per text: a tuple of compact copies of its rows of each array in
        `columns`, whose rows belong to the sorted text indices `file`, or
        None for a text that is not plain or is `bad`."""
        n = len(self.plain)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(file, minlength=n)))).tolist()
        keep = (self.plain & ~bad).tolist()
        return [tuple(c[bounds[f]:bounds[f + 1]].copy() for c in columns) if keep[f] else None
                for f in range(n)]


def _numbers(fields: np.ndarray, kind) -> tuple[np.ndarray, np.ndarray]:
    """(values, ok) of the (n, w) byte `fields` read as `kind` (float or
    int): a field is ok when `kind` reads it and it has a digit and no byte
    above "9", so no letter (exponent, nan, inf) and no underscore; the
    others read as 0."""
    top = fields.max(axis=1, initial=0)
    ok = (top >= _DIGIT_0) & (top <= _DIGIT_9)
    raw = np.ascontiguousarray(fields).view(f"S{fields.shape[1]}")[:, 0]
    if not ok.all():
        raw = np.where(ok, raw, b"0")
    dtype = np.float64 if kind is float else np.int64
    try:
        return raw.astype(dtype), ok
    except ValueError:  # a numeral out of order, such as "1-2": read one by one
        values = np.zeros(len(raw), dtype=dtype)
        for i in np.flatnonzero(ok).tolist():
            try:
                values[i] = kind(raw[i])
            except ValueError:
                ok[i] = False
        return values, ok


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i]:starts[i] + counts[i], concatenated."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _lead(*keys: np.ndarray) -> np.ndarray:
    """Whether each row of the sorted `keys` starts a run of equal keys."""
    lead = np.ones(len(keys[0]), dtype=bool)
    lead[1:] = False
    for key in keys:
        lead[1:] |= key[1:] != key[:-1]
    return lead


def _ca_residues(table: _LineTable) -> list:
    """Per text of `table`: its residues as `parse_pdb` reads them, a tuple
    (aa, chain, seq_index, ca) of arrays, or None where the per-line parse
    must decide: a text that is not plain, has no CA record, or has a CA
    resSeq or a kept CA coordinate that is not a plain numeral."""
    words = table.rows.view(np.uint32)
    name = words[:, 3]
    k = np.flatnonzero((words[:, 0] == _ATOM_WORD) & table.plain[table.file]
                       & ((name == _CA_WORDS[0]) | (name == _CA_WORDS[1]) | (name == _CA_WORDS[2])))
    rows, file = table.rows[k], table.file[k]
    seq, seq_ok = _numbers(rows[:, 22:26], int)
    chain = rows[:, 21]
    # a stable sort by (text, chain, resSeq) puts residues in their order and
    # each key's first record first
    order = np.lexsort((seq, chain, file))
    kept = order[_lead(file[order], chain[order], seq[order])]
    xyz, xyz_ok = _numbers(rows[kept, 30:54].reshape(-1, 8), float)
    bad = np.bincount(file[~seq_ok], minlength=len(table.plain)) > 0
    bad[file[kept][~xyz_ok.reshape(-1, 3).all(axis=1)]] = True
    bad |= np.bincount(file, minlength=len(table.plain)) == 0
    names, which = np.unique(rows[kept, 17:20].view("S3")[:, 0], return_inverse=True)
    aa = np.array([name if name in AMINO_ACIDS_3TO1 else UNKNOWN_AA
                   for name in (n.decode("ascii").strip() for n in names.tolist())], dtype="U3")
    return table.split(file[kept], (aa[which], _CHAIN[chain[kept]], seq[kept],
                                    xyz.reshape(-1, 3)), bad)


def _pdb_element(field: str, name: str) -> str:
    """An ATOM record's element from its element field, or from its atom
    name's first letter when that field is blank."""
    element = field.strip().capitalize()
    return element if element else name.lstrip("0123456789")[:1].upper()


def _heavy_atoms(table: _LineTable) -> list:
    """Per text of `table`: its heavy atoms as `parse_pdb_atoms` reads them,
    a tuple (elements, positions) of arrays, or None where the per-line
    parse must decide: a text that is not plain, has no heavy atom, or has
    an ATOM resSeq that is not a plain numeral, or a kept record whose
    element is unknown or whose coordinate is not a plain numeral."""
    k = np.flatnonzero((table.rows.view(np.uint32)[:, 0] == _ATOM_WORD) & table.plain[table.file])
    rows, file = table.rows[k], table.file[k]
    seq, seq_ok = _numbers(rows[:, 22:26], int)
    # the element and stripped atom name of each distinct pair of fields
    fields, which = np.unique(np.concatenate((rows[:, 12:16], rows[:, 76:78]), axis=1)
                              .view("S6")[:, 0], return_inverse=True)
    fields = [field.decode("ascii") for field in fields.tolist()]
    names = [field[:4].strip() for field in fields]
    elements = np.array([_pdb_element(f[4:], name) for f, name in zip(fields, names)] or [""])
    name_ids = {name: i for i, name in enumerate(dict.fromkeys(names))}
    name_id = np.array([name_ids[name] for name in names] or [0])[which]
    # H and D records are skipped; of the others, the first record of each
    # (chain, resSeq, atom name) is kept
    heavy = np.flatnonzero(((elements != "H") & (elements != "D"))[which])
    key = (file[heavy], rows[heavy, 21], seq[heavy], name_id[heavy])
    order = np.lexsort(key[::-1])
    kept = heavy[np.sort(order[_lead(*(column[order] for column in key))])]
    known = np.array([e in ELEMENT_SYMBOLS for e in elements.tolist()])[which[kept]]
    xyz, xyz_ok = _numbers(rows[kept, 30:54].reshape(-1, 8), float)
    bad = np.bincount(file[~seq_ok], minlength=len(table.plain)) > 0
    bad[file[kept][~(xyz_ok.reshape(-1, 3).all(axis=1) & known)]] = True
    bad |= np.bincount(file[kept], minlength=len(table.plain)) == 0
    return table.split(file[kept], (elements[which[kept]], xyz.reshape(-1, 3)), bad)


# a row's first six bytes, as the low bytes of its first uint64 word
_HEAD6 = np.frombuffer(b"\xff" * 6 + b"\0" * 2, dtype=np.uint64)[0]
_M_CHG, _M_END = (np.frombuffer(key + b"\0" * 2, dtype=np.uint64)[0] for key in (b"M  CHG", b"M  END"))
_V3000 = np.frombuffer(b"V3000", dtype=np.uint8)
_CHARGE_OF_CODE = np.array([_SDF_CHARGE_CODES[code] for code in range(8)], dtype=np.int64)


def _sdf_records(table: _LineTable) -> list:
    """Per text of `table`: its molecules as `parse_sdf` reads them, a list
    of `LigandMolecule` field dicts, or None where the per-line parse must
    decide: a text that is not plain, or that has a record the per-line
    parse rejects (V3000 included), a numeric field that is not a plain
    numeral, or a bond its `LigandMolecule` rejects."""
    rows, n_files, n = table.rows, len(table.plain), len(table.rows)
    bad = ~table.plain
    plain = table.plain[table.file]
    # no byte of a plain line is below a space, so a "$$$$" line has no byte
    # above "$"; a candidate, and a line blank as far as the matrix reads but
    # longer, are read whole
    top = rows.max(axis=1, initial=_SPACE)
    nonblank, dollar = top > _SPACE, top == ord("$")
    wider = table.stop - table.start > _SDF_WIDTH
    for k in np.flatnonzero(plain & (dollar | (wider & ~nonblank))).tolist():
        text = table.line(k).strip()
        nonblank[k], dollar[k] = bool(text), text == "$$$$"
    # records: the runs of lines between "$$$$" lines that hold a nonblank line
    opens = np.ones(n, dtype=bool)
    opens[1:] = dollar[:-1] | (table.file[1:] != table.file[:-1])
    s = np.flatnonzero(opens)
    e = np.append(s[1:], n)[:len(s)]
    e -= dollar[e - 1]
    filled = np.concatenate(([0], np.cumsum(nonblank)))
    record = (filled[e] > filled[s]) & plain[s]
    s, e = s[record], e[record]
    file = table.file[s]
    index = np.arange(len(s)) - np.searchsorted(file, file)
    # the counts line
    c = np.minimum(s + 3, n - 1)
    counts, counts_ok = _numbers(rows[c, 0:6].reshape(-1, 3), int)
    na, nb = counts.reshape(-1, 2).T
    wrong = ((e - s < 4) | ~counts_ok.reshape(-1, 2).all(axis=1) | (na < 0) | (nb < 0)
             | (rows[c, 34:39] == _V3000).all(axis=1) | (s + 4 + na + nb > e))
    bad[file[wrong]] = True
    na, nb = np.where(wrong, 0, na), np.where(wrong, 0, nb)
    # the atom and bond blocks: x, y, z, element and charge code per atom;
    # the two endpoints, indices into the atom block, and order per bond
    atom_off = np.concatenate(([0], np.cumsum(na)))
    atom_rec, bond_rec = np.repeat(np.arange(len(s)), na), np.repeat(np.arange(len(s)), nb)
    a = rows[_ranges(s + 4, na)]
    xyz, xyz_ok = _numbers(a[:, 0:30].reshape(-1, 10), float)
    symbols, which = np.unique(a[:, 31:34].copy().view("S3")[:, 0], return_inverse=True)
    symbols = [sym.decode("ascii").strip() for sym in symbols.tolist()]
    known = np.array([sym in ELEMENT_SYMBOLS for sym in symbols], dtype=bool)
    ints, ints_ok = _numbers(np.concatenate((a[:, 36:39], rows[_ranges(s + 4 + na, nb), 0:9]
                                             .reshape(-1, 3))), int)
    code, bond = ints[:len(a)], ints[len(a):].reshape(-1, 3)
    code_ok = ints_ok[:len(a)] | (a[:, 36:39] == _SPACE).all(axis=1)
    charge = _CHARGE_OF_CODE[np.where((code >= 0) & (code < 8), code, 0)]
    bad[file[atom_rec[~(xyz_ok.reshape(-1, 3).all(axis=1) & known[which] & code_ok)]]] = True
    ij = bond[:, :2] - 1
    inside = ((ij >= 0) & (ij < na[bond_rec, None])).all(axis=1)
    bad[file[bond_rec[~(ints_ok[len(a):].reshape(-1, 3).all(axis=1) & inside)]]] = True
    ij, bond_rec, order = ij[inside] + atom_off[bond_rec[inside], None], bond_rec[inside], \
        bond[inside, 2]
    # "M  CHG" lines before a record's first "M  END" replace its charge codes
    head = rows.view(np.uint64)[:, 0] & _HEAD6
    overrides: dict[int, dict[int, int]] = {}
    chg = np.flatnonzero(head == _M_CHG)
    if chg.size:
        props = s + 4 + na + nb
        ends = np.append(np.flatnonzero(head == _M_END), n)
        stop = np.minimum(ends[np.searchsorted(ends, np.minimum(props, n))], e)
    for k in chg.tolist():
        r = int(np.searchsorted(s, k, "right")) - 1
        if r < 0 or not props[r] <= k < stop[r] or bad[file[r]]:
            continue
        try:
            overrides.setdefault(r, {}).update(
                _charge_pairs(table.line(k), table.lineno(k), int(na[r])))
        except ParseError:
            bad[file[r]] = True
    for r, charges in overrides.items():
        if charges:
            charge[atom_off[r]:atom_off[r + 1]] = [charges.get(i, 0) for i in range(na[r])]
    # hydrogens dropped, bonds renumbered onto the heavy atoms
    heavy = np.array([sym != "H" for sym in symbols], dtype=bool)[which]
    rank = np.cumsum(heavy) - 1
    heavy_off = np.concatenate(([0], np.cumsum(heavy)))[atom_off]
    both = heavy[ij].all(axis=1)
    ij, bond_rec, order = rank[ij[both]], bond_rec[both], order[both]
    aromatic = np.zeros(heavy_off[-1], dtype=bool)
    aromatic[ij[order == AROMATIC_BOND]] = True
    lo, hi = ij.min(axis=1), ij.max(axis=1)
    by_pair = np.lexsort((hi, lo))
    repeat = np.zeros(len(lo), dtype=bool)
    repeat[by_pair] = ~_lead(lo[by_pair], hi[by_pair])
    bad[file[bond_rec[repeat | (lo == hi)]]] = True
    bonds = np.column_stack((ij - heavy_off[bond_rec, None], order))
    bond_off = np.concatenate(([0], np.cumsum(np.bincount(bond_rec, minlength=len(s)))))
    # a record's element array is as wide as its widest symbol, hydrogens included
    long = np.array([len(sym) > 1 for sym in symbols], dtype=bool)
    wide = np.bincount(atom_rec, weights=long[which], minlength=len(s)) > 0
    elements = np.array(symbols or [""])[which[heavy]]
    positions = xyz.reshape(-1, 3)[heavy]
    charge = charge[heavy]
    out = [None if bad[f] else [] for f in range(n_files)]
    heavy_off, bond_off, index = heavy_off.tolist(), bond_off.tolist(), index.tolist()
    for r, (f, line) in enumerate(zip(file.tolist(), s.tolist())):
        if out[f] is None:
            continue
        h0, h1, b0, b1 = heavy_off[r], heavy_off[r + 1], bond_off[r], bond_off[r + 1]
        title = table.line(line).strip()
        out[f].append(dict(
            id=title if title else f"mol{index[r]}",
            elements=elements[h0:h1].astype("U2" if wide[r] else "U1"),
            positions=positions[h0:h1].copy(), charges=charge[h0:h1].copy(),
            aromatic=aromatic[h0:h1].copy(), bond_table=bonds[b0:b1].copy()))
    return out


def _bare(cls, **fields):
    """A `cls` holding `fields` (arrays made read-only) without its
    constructor's checks: for the arrays of a pass that checked them."""
    obj = object.__new__(cls)
    obj.__dict__.update({name: _read_only(value) if isinstance(value, np.ndarray) else value
                         for name, value in fields.items()})
    return obj


def _protein(structure_id: str, arrays) -> ProteinStructure:
    aa, chain, seq_index, ca = arrays
    return _bare(ProteinStructure, id=structure_id, aa=aa, chain=chain, seq_index=seq_index, ca=ca)


def _pdb_float(line: str, start: int, end: int, lineno: int, what: str) -> float:
    raw = line[start:end].strip()
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"malformed {what} field {raw!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} field {raw!r}", line=lineno)
    return value


def _pdb_coords(kept) -> np.ndarray:
    """(n, 3) x, y, z of the (lineno, line) ATOM records `kept`, parsed in one
    pass; if any field is malformed or non-finite, they are parsed field by
    field in order instead, so the first bad field raises its own error."""
    try:
        xyz = np.array([(line[30:38], line[38:46], line[46:54]) for _, line in kept],
                       dtype=np.float64).reshape(-1, 3)
        if np.isfinite(xyz).all():
            return xyz
    except ValueError:
        pass
    return np.array([[_pdb_float(line, 30, 38, lineno, "x"),
                      _pdb_float(line, 38, 46, lineno, "y"),
                      _pdb_float(line, 46, 54, lineno, "z")] for lineno, line in kept])


def _scan_atoms(text: str, ca_only: bool) -> tuple[dict, list[str]]:
    """The per-line parse: the first ATOM record of each key, in file order,
    as key -> (lineno, line), and the element symbol of each: key (chain,
    resSeq) over the CA records if `ca_only` (no elements are read), else
    (chain, resSeq, atom name) over the heavy-atom records.

    Fields are read at their fixed PDB columns. A malformed resSeq, or an
    unknown element, raises for its line after the records kept before it
    have had their coordinates parsed (see `_pdb_coords`), so the first bad
    field in file order is the one reported.
    """
    kept: dict = {}
    elements: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("ATOM"):
            continue
        name = line[12:16].strip()
        if ca_only and name != "CA":
            continue
        try:
            seq_index = int(line[22:26])
        except ValueError:
            _pdb_coords(kept.values())
            raise ParseError(f"malformed resSeq field {line[22:26]!r}", line=lineno) from None
        chain = line[21:22].strip()
        key = (chain, seq_index) if ca_only else (chain, seq_index, name)
        if key in kept:
            continue
        if not ca_only:
            element = _pdb_element(line[76:78], name)
            if element in ("H", "D"):
                continue
            if element not in ELEMENT_SYMBOLS:
                _pdb_coords(kept.values())
                raise ParseError(f"unknown element {element!r}", line=lineno)
            elements.append(element)
        kept[key] = (lineno, line)
    return kept, elements


def parse_pdb(data, structure_id: str = "protein") -> ProteinStructure:
    """Extract one residue per (chain, resSeq) that has a CA ATOM record.

    The first CA encountered for a residue wins, which also resolves
    alternate locations in favour of the first altLoc. HETATM records and
    insertion codes are ignored. Residues come back sorted by (chain, resSeq).
    The array pass (`_ca_residues`) reads the text; one the pass leaves
    goes through the per-line parse (`_scan_atoms`), where a malformed
    field raises for the first bad line in file order, a bad resSeq after
    a bad coordinate included.
    """
    (arrays,) = _ca_residues(_LineTable([data], _PDB_WIDTH))
    if arrays is not None:
        return _protein(structure_id, arrays)
    return _parse_pdb_lines(data, structure_id)


def _parse_pdb_lines(data, structure_id: str) -> ProteinStructure:
    """`parse_pdb` line by line."""
    kept, _ = _scan_atoms(_as_text(data), ca_only=True)
    if not kept:
        raise EmptyStructureError("no CA ATOM records found")
    xyz = _pdb_coords(kept.values())
    keys = list(kept)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    names = [line[17:20].strip() for _, line in kept.values()]
    return ProteinStructure(
        structure_id,
        aa=[names[i] if names[i] in AMINO_ACIDS_3TO1 else UNKNOWN_AA for i in order],
        chain=[keys[i][0] for i in order], seq_index=[keys[i][1] for i in order],
        ca=xyz[order])


def parse_pdb_atoms(data) -> HeavyAtoms:
    """Full-detail parse keeping every non-hydrogen ATOM record.

    Used by the physics score, which needs all protein heavy atoms rather
    than just alpha carbons. Alternate locations resolve to the first seen
    (chain, resSeq, atom name). As in `parse_pdb`, the array pass
    (`_heavy_atoms`) reads the text, and one it leaves goes through the
    per-line parse, where a malformed field raises for the first bad line
    in file order.
    """
    (arrays,) = _heavy_atoms(_LineTable([data], _PDB_WIDTH))
    if arrays is not None:
        elements, positions = arrays
        return HeavyAtoms(elements=tuple(elements.tolist()), positions=positions)
    kept, elements = _scan_atoms(_as_text(data), ca_only=False)
    if not kept:
        raise EmptyStructureError("no heavy-atom ATOM records found")
    return HeavyAtoms(elements=tuple(elements), positions=_pdb_coords(kept.values()))


def parse_sdf(data) -> list[LigandMolecule]:
    """Parse a V2000 SDF; one molecule per $$$$-delimited record.

    Hydrogens are dropped and bond indices remapped onto the remaining heavy
    atoms. Bond type 4 marks aromatic bonds; atoms touching one get the
    aromatic flag. The array pass (`_sdf_records`) reads the text; one the
    pass leaves goes through the per-line parse (`_parse_mol_block`), which
    raises for the first bad line.
    """
    (mols,) = _sdf_records(_LineTable([data], _SDF_WIDTH))
    if mols is not None:
        return [_bare(LigandMolecule, **mol) for mol in mols]
    return _parse_sdf_lines(data)


def _parse_sdf_lines(data) -> list[LigandMolecule]:
    """`parse_sdf` line by line."""
    lines = _as_text(data).splitlines()
    mols = []
    start = 0
    n = len(lines)
    while start < n:
        end = start
        while end < n and lines[end].strip() != "$$$$":
            end += 1
        block = lines[start:end]
        if any(l.strip() for l in block):
            mols.append(_parse_mol_block(block, start, len(mols)))
        start = end + 1
    return mols


def _charge_pairs(line: str, lineno: int, n_atoms: int) -> list[tuple[int, int]]:
    """The (atom index, charge) pairs of an `M  CHG` line."""
    fields = line.split()
    try:
        count = int(fields[2])
        pairs = [(int(i) - 1, int(c)) for i, c in zip(fields[3::2], fields[4::2])]
    except (IndexError, ValueError):
        count = -1
    # a charge must fit the int64 charge array
    if len(fields) != 3 + 2 * count or any(not -2 ** 63 <= c < 2 ** 63 for _, c in pairs):
        raise ParseError(f"malformed charge line {line!r}", line=lineno)
    if not all(0 <= idx < n_atoms for idx, _ in pairs):
        raise ParseError(f"charge atom index out of range in {line!r}", line=lineno)
    return pairs


def _parse_mol_block(block: list[str], offset: int, record_index: int) -> LigandMolecule:
    """The per-line parse of one SDF record."""
    if len(block) < 4:
        raise ParseError("truncated mol block", line=offset + 1)
    title = block[0].strip()
    counts = block[3]
    counts_lineno = offset + 4
    if counts[34:39] == "V3000":
        raise ParseError("V3000 mol block is not supported (write V2000)", line=counts_lineno)
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except ValueError:
        raise ParseError(f"malformed counts line {counts!r}", line=counts_lineno) from None
    atom_lines = block[4:4 + n_atoms]
    bond_lines = block[4 + n_atoms:4 + n_atoms + n_bonds]
    if len(atom_lines) != n_atoms or len(bond_lines) != n_bonds:
        raise ParseError(
            f"counts line declares {n_atoms} atoms / {n_bonds} bonds "
            f"but block holds {len(atom_lines)} / {len(bond_lines)}",
            line=counts_lineno,
        )

    elements: list[str] = []
    xyz: list[tuple[float, float, float]] = []
    charges: list[int] = []
    for k, line in enumerate(atom_lines):
        lineno = offset + 5 + k
        try:
            x = float(line[0:10])
            y = float(line[10:20])
            z = float(line[20:30])
        except ValueError:
            raise ParseError(f"malformed coordinates in {line!r}", line=lineno) from None
        symbol = line[31:34].strip()
        if symbol not in ELEMENT_SYMBOLS:
            raise ParseError(f"unknown element symbol {symbol!r}", line=lineno)
        code_field = line[36:39].strip() or "0"
        try:
            charge = _SDF_CHARGE_CODES.get(int(code_field), 0)
        except ValueError:
            charge = 0
        elements.append(symbol)
        xyz.append((x, y, z))
        charges.append(charge)

    raw_bonds: list[tuple[int, int, int]] = []
    for k, line in enumerate(bond_lines):
        lineno = offset + 5 + n_atoms + k
        try:
            i = int(line[0:3]) - 1
            j = int(line[3:6]) - 1
            order = int(line[6:9])
        except ValueError:
            raise ParseError(f"malformed bond line {line!r}", line=lineno) from None
        if not (0 <= i < n_atoms and 0 <= j < n_atoms):
            raise ParseError(f"bond endpoint out of range in {line!r}", line=lineno)
        raw_bonds.append((i, j, order))

    # "M  CHG" property lines supersede all atom-block charge codes
    chg_overrides: dict[int, int] = {}
    props = 4 + n_atoms + n_bonds
    for lineno, line in enumerate(block[props:], start=offset + 1 + props):
        if line.startswith("M  CHG"):
            chg_overrides.update(_charge_pairs(line, lineno, n_atoms))
        elif line.startswith("M  END"):
            break
    if chg_overrides:
        charges = [chg_overrides.get(i, 0) for i in range(n_atoms)]

    # bonds between heavy atoms, renumbered onto the heavy atoms
    symbols = np.array(elements, dtype=str)
    heavy = symbols != "H"
    renumber = np.cumsum(heavy) - 1
    raw = np.array(raw_bonds, dtype=np.int64).reshape(-1, 3)
    raw = raw[heavy[raw[:, 0]] & heavy[raw[:, 1]]]
    bonds = np.column_stack([renumber[raw[:, 0]], renumber[raw[:, 1]], raw[:, 2]])
    aromatic = np.zeros(int(heavy.sum()), dtype=bool)
    aromatic[bonds[bonds[:, 2] == AROMATIC_BOND, :2]] = True
    return LigandMolecule(
        title if title else f"mol{record_index}", bonds=bonds,
        elements=symbols[heavy],
        positions=np.array(xyz, dtype=np.float64).reshape(-1, 3)[heavy],
        charges=np.array(charges, dtype=np.int64)[heavy], aromatic=aromatic)


def write_sdf(mols, stream=None) -> str:
    """Serialize molecules as V2000 SDF (coordinates to 4 decimals)."""
    if isinstance(mols, LigandMolecule):
        mols = [mols]
    chunks: list[str] = []
    for mol in mols:
        lines = [mol.id, "  cpi3d", ""]
        lines.append(f"{len(mol):3d}{len(mol.bond_table):3d}  0  0  0  0  0  0  0  0999 V2000")
        charges = mol.charges.tolist()
        for (x, y, z), element, charge in zip(mol.positions.tolist(), mol.elements.tolist(),
                                              charges):
            code = _SDF_CHARGE_FIELDS.get(charge, 0)
            lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f}"
                         f" {element:<3s} 0  {code}  0  0  0  0  0  0  0  0  0  0")
        for i, j, order in mol.bond_table.tolist():
            lines.append(f"{i + 1:3d}{j + 1:3d}{order:3d}  0")
        charged = [(i, c) for i, c in enumerate(charges) if c]
        for start in range(0, len(charged), 8):
            group = charged[start:start + 8]
            entry = "".join(f" {i + 1:3d} {c:3d}" for i, c in group)
            lines.append(f"M  CHG{len(group):3d}{entry}")
        lines.append("M  END")
        lines.append("$$$$")
        chunks.append("\n".join(lines))
    out = "\n".join(chunks) + "\n"
    if stream is not None:
        stream.write(out)
    return out


def parse_numbers(items, where, kind=float) -> list:
    """The raw strings of (label, raw) `items` parsed as finite `kind`
    (float or int); a bad one raises `ValidationError` naming `where(label)`."""
    values = []
    for label, raw in items:
        try:
            value = kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValidationError(f"{where(label)} {raw!r} is not {what}") from None
        if not math.isfinite(value):
            raise ValidationError(f"{where(label)} {raw!r} is not finite")
        values.append(value)
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_file(path: str, parse, cid: str):
    """`parse` of the text of the file at `path`; text that is not UTF-8 or
    does not parse raises `ValidationError` naming the row and the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except ValueError as exc:
        raise ValidationError(f"row {cid!r}: {path}: {exc}") from None


def _read_bytes(path: str) -> bytes | None:
    """The bytes of the file at `path`, or None if it cannot be read; its
    per-line parse then reopens it and raises in row order."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class _Row(NamedTuple):
    """A checked manifest row and the bytes of its files, None where a file
    could not be read; `protein` is read only in the first row that names
    its path, and is None in the others."""
    cid: str
    values: dict
    ligand_path: str
    protein_path: str
    ligand: bytes | None
    protein: bytes | None


_CHUNK_BYTES = 192 << 10  # structure-file bytes that `load_manifest` parses in one pass


def _records(rows: list[_Row], proteins: dict) -> list[ComplexRecord]:
    """The records of `rows`, in order: their ligand texts in one array pass
    and the proteins they first name in another. A text the passes leave
    goes through the per-line parse of its file, so the first bad row
    raises with its own error. `proteins` maps each protein path to its
    structure, or to None until it is parsed."""
    ligands = _sdf_records(_LineTable([row.ligand for row in rows], _SDF_WIDTH))
    first = [i for i, row in enumerate(rows) if row.protein is not None]
    residues = dict(zip(first, _ca_residues(_LineTable([rows[i].protein for i in first],
                                                       _PDB_WIDTH))))
    records = []
    for i, (row, mols) in enumerate(zip(rows, ligands)):
        cid = row.cid
        if mols is None:
            poses = _parse_file(row.ligand_path, _parse_sdf_lines, cid)
        else:
            poses = [_bare(LigandMolecule, **mol) for mol in mols]
        if not poses:
            raise ValidationError(f"row {cid!r}: ligand SDF holds no molecules")
        if not len(poses[0]):
            raise ValidationError(f"row {cid!r}: ligand has no heavy atoms")
        protein = proteins[row.protein_path]
        if protein is not None:
            protein = protein.renamed(cid)
        elif residues.get(i) is not None:
            protein = proteins[row.protein_path] = _protein(cid, residues[i])
        else:
            protein = proteins[row.protein_path] = _parse_file(
                row.protein_path, lambda text: _parse_pdb_lines(text, cid), cid)

        ec50 = None
        raw = (row.values.get("ec50_nm") or "").strip()
        if raw:
            (ec50,) = parse_numbers([(cid, raw)], lambda cid: f"row {cid!r}: ec50_nm")
        active = None
        raw = (row.values.get("is_active") or "").strip()
        if raw:
            active = _BOOLEANS.get(raw.lower())
            if active is None:
                raise ValidationError(f"row {cid!r}: is_active {raw!r} is not a boolean")

        records.append(ComplexRecord(
            complex_id=cid, ligand=poses[0], protein=protein,
            poses=tuple(poses), label_ec50_nm=ec50, is_active=active,
        ))
    return records


def load_manifest(path) -> list[ComplexRecord]:
    """Load a dataset manifest CSV and parse every referenced file.

    Required columns: complex_id, ligand_sdf, protein_pdb. Optional:
    ec50_nm, is_active; any other column is rejected, and so is a row with
    more fields than the header or a blank required value. A UTF-8
    byte-order mark is skipped. Each complex_id may appear once; data rows
    are numbered from 1 in errors. File paths resolve relative to the
    manifest's directory. Multi-record SDFs become multiple poses; the
    first, the record's ligand, must hold a heavy atom. A file that is not
    UTF-8 or does not parse is named with its row in the error. Each
    protein path is parsed once; records naming it share its residue
    arrays.

    Rows are read in order, and the files of about `_CHUNK_BYTES` of rows
    are parsed together in one array pass per file kind (`_records`), so
    small files share numpy's fixed cost; an error is still raised for the
    first bad row, whatever its kind.
    """
    base = os.path.dirname(os.path.abspath(path))
    records: list[ComplexRecord] = []
    proteins: dict[str, ProteinStructure | None] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"complex_id", "ligand_sdf", "protein_pdb"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(
                f"manifest must have columns {sorted(required)}, got {reader.fieldnames}"
            )
        allowed = required | {"ec50_nm", "is_active"}
        unknown = [name for name in reader.fieldnames if name not in allowed]
        if unknown:
            raise ValidationError(f"manifest: unknown column {unknown[0]!r}, "
                                  f"allowed {sorted(allowed)}")
        first_row: dict[str, int] = {}
        rows: list[_Row] = []
        size = 0
        error = None
        numbered = enumerate(reader, start=1)
        while True:
            try:
                row_no, row = next(numbered)
                for column in sorted(required):
                    if not (row[column] or "").strip():
                        raise ValidationError(f"row {row_no}: no {column} value")
                if None in row:
                    raise ValidationError(f"row {row_no}: more fields than the header")
                cid = row["complex_id"].strip()
                if cid in first_row:
                    raise ValidationError(f"row {row_no}: duplicate complex_id {cid!r} "
                                          f"(first in row {first_row[cid]})")
                first_row[cid] = row_no
                lig_path = os.path.join(base, row["ligand_sdf"].strip())
                prot_path = os.path.join(base, row["protein_pdb"].strip())
                for p in (lig_path, prot_path):
                    if not os.path.exists(p):
                        raise FileNotFoundError(f"row {cid!r}: missing file {p}")
            except StopIteration:
                break
            except Exception as exc:  # raised once the rows before it are parsed
                error = exc
                break
            protein = None
            if prot_path not in proteins:
                proteins[prot_path] = None
                protein = _read_bytes(prot_path)
            rows.append(_Row(cid, row, lig_path, prot_path, _read_bytes(lig_path), protein))
            size += len(rows[-1].ligand or b"") + len(protein or b"")
            if size >= _CHUNK_BYTES:
                records += _records(rows, proteins)
                rows, size = [], 0
        records += _records(rows, proteins)
    if error is not None:
        raise error
    return records
