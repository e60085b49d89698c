"""Chain-coordinate file parsing and writing.

Canonical format (written by this package), one chain per block:

    #stepasm-chains 1
    >chain_id
    SEQUENCE
    x y z            <- one line per residue, full-precision decimals

A restricted legacy reader also accepts protein-structure text files,
consuming only alpha-carbon ATOM records (first model, first altloc); other
record types are ignored. Chains shorter than 50 residues are dropped with a
warning in both formats. A file must be UTF-8, its chain ids distinct, its
coordinates finite and within MAX_COORD, and at least one of its chains long
enough; anything else is a MalformedRecordError or an EmptyFileError.
"""

import io
import warnings

import numpy as np

from .errors import EmptyFileError, MalformedRecordError, ShortChainWarning
from .graphs import ChainStructure
from .ioutil import atomic_write_text

FORMAT_HEADER = "#stepasm-chains 1"
MIN_CHAIN_LEN = 50
# largest coordinate magnitude read (angstrom): squared distances between such
# points stay far from float64 overflow when eval superposes them
MAX_COORD = 1e6

_THREE_TO_ONE = {
    "ALA": "A", "ARG": "R", "ASN": "N", "ASP": "D", "CYS": "C",
    "GLN": "Q", "GLU": "E", "GLY": "G", "HIS": "H", "ILE": "I",
    "LEU": "L", "LYS": "K", "MET": "M", "PHE": "F", "PRO": "P",
    "SER": "S", "THR": "T", "TRP": "W", "TYR": "Y", "VAL": "V",
}


def write_chain_file(path, chains):
    lines = [FORMAT_HEADER]
    for c in chains:
        lines.append(f">{c.chain_id}")
        lines.append(c.sequence)
        for x, y, z in c.coords:
            lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_canonical(lines):
    chains = []
    ident = None
    sequence = None
    coords = []
    seq_line = 0

    def close(lineno):
        if ident is None:
            return
        if sequence is None:
            raise MalformedRecordError(f"chain {ident!r} has no sequence", seq_line)
        if len(coords) != len(sequence):
            raise MalformedRecordError(
                f"chain {ident!r}: {len(sequence)} residues but {len(coords)} "
                "coordinate lines",
                lineno,
            )
        chains.append((ident, sequence, np.array(coords)))

    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(">"):
            close(lineno)
            ident = line[1:].strip()
            if not ident:
                raise MalformedRecordError("empty chain identifier", lineno)
            if ident in (c[0] for c in chains):
                raise MalformedRecordError(f"chain id {ident!r} repeated", lineno)
            sequence = None
            coords = []
            continue
        if ident is None:
            raise MalformedRecordError("data before any chain header", lineno)
        if sequence is None:
            sequence = line
            seq_line = lineno
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedRecordError(
                f"expected 3 coordinates, got {len(parts)}", lineno
            )
        try:
            xyz = [float(p) for p in parts]
        except ValueError:
            raise MalformedRecordError(f"bad coordinate value in {line!r}", lineno) from None
        if not all(abs(v) <= MAX_COORD for v in xyz):
            raise MalformedRecordError(f"coordinate not finite or beyond {MAX_COORD:g}", lineno)
        coords.append(xyz)
    close(lines[-1][0] if lines else 0)
    return chains


def _parse_legacy(lines):
    order = []
    residues = {}
    for lineno, raw in lines:
        rec = raw.rstrip("\n")
        tag = rec[:6].strip()
        if tag == "ENDMDL":
            break
        if tag != "ATOM" or len(rec) < 54:
            continue
        if rec[12:16].strip() != "CA":
            continue
        if rec[16] not in (" ", "A"):
            continue
        chain = rec[21].strip() or "_"
        try:
            resseq = int(rec[22:26])
            xyz = [float(rec[30:38]), float(rec[38:46]), float(rec[46:54])]
        except ValueError:
            raise MalformedRecordError(f"unparseable atom record {rec!r}", lineno) from None
        if not all(abs(v) <= MAX_COORD for v in xyz):
            raise MalformedRecordError(f"coordinate not finite or beyond {MAX_COORD:g}", lineno)
        if chain not in residues:
            residues[chain] = {}
            order.append(chain)
        if resseq in residues[chain]:
            continue  # first altloc/duplicate wins
        aa = _THREE_TO_ONE.get(rec[17:20].strip(), "X")
        residues[chain][resseq] = (aa, xyz)
    chains = []
    for chain in order:
        entries = sorted(residues[chain].items())
        seq = "".join(aa for _, (aa, _) in entries)
        coords = np.array([xyz for _, (_, xyz) in entries])
        chains.append((chain, seq, coords))
    return chains


def _numbered_lines(path):
    """(line number, line) for each line of ``path``, which must be UTF-8.
    Lines end at \\n, \\r\\n or \\r, as in a text reader."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        lineno = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise MalformedRecordError(f"not UTF-8: {exc.reason}", lineno) from None
    return list(enumerate(io.StringIO(text, newline=None), start=1))


def parse_chain_coords(path):
    """ChainStructure list from either supported format; short chains dropped."""
    lines = _numbered_lines(path)
    first = next((raw.strip() for _, raw in lines if raw.strip()), None)
    if first is None:
        raise EmptyFileError(f"{path}: no content")
    if first.startswith(("#stepasm-chains", ">")):
        raw_chains = _parse_canonical(lines)
    elif first[:6].strip() in ("ATOM", "HETATM", "MODEL", "HEADER", "REMARK", "TITLE", "CRYST1"):
        raw_chains = _parse_legacy(lines)
    else:
        raise MalformedRecordError(f"unrecognized format: {first[:40]!r}", 1)
    if not raw_chains:
        raise EmptyFileError(f"{path}: no chain records found")
    kept = []
    for ident, seq, coords in raw_chains:
        if len(seq) < MIN_CHAIN_LEN:
            warnings.warn(
                f"{path}: chain {ident!r} has {len(seq)} residues "
                f"(< {MIN_CHAIN_LEN}); dropped",
                ShortChainWarning,
            )
            continue
        kept.append(ChainStructure(chain_id=ident, sequence=seq, coords=coords))
    if not kept:
        raise EmptyFileError(f"{path}: every chain has fewer than {MIN_CHAIN_LEN} residues")
    return kept
