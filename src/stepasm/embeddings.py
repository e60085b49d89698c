"""Residue and chain feature vectors.

Each residue maps to a 13-dim vector: a 7-way one-hot over conjoint-triad
residue classes, followed by six physicochemical descriptors (hydropathy,
side-chain volume, polarity, polarizability, isoelectric point, helix
propensity), each min-max scaled to [0, 1] over the 20 standard residues.
A chain embeds as the mean of its residue vectors.
"""

import warnings

import numpy as np

from .errors import EmptySequenceError, UnknownResidueWarning

EMBED_DIM = 13

# Conjoint-triad grouping by dipole and side-chain volume.
_CLASSES = ("AGV", "ILFP", "YMTS", "HNQW", "RK", "DE", "C")

# Kyte-Doolittle hydropathy
_HYDROPATHY = {
    "A": 1.8, "R": -4.5, "N": -3.5, "D": -3.5, "C": 2.5,
    "Q": -3.5, "E": -3.5, "G": -0.4, "H": -3.2, "I": 4.5,
    "L": 3.8, "K": -3.9, "M": 1.9, "F": 2.8, "P": -1.6,
    "S": -0.8, "T": -0.7, "W": -0.9, "Y": -1.3, "V": 4.2,
}

# side-chain volume, A^3
_VOLUME = {
    "A": 88.6, "R": 173.4, "N": 114.1, "D": 111.1, "C": 108.5,
    "Q": 143.8, "E": 138.4, "G": 60.1, "H": 153.2, "I": 166.7,
    "L": 166.7, "K": 168.6, "M": 162.9, "F": 189.9, "P": 112.7,
    "S": 89.0, "T": 116.1, "W": 227.8, "Y": 193.6, "V": 140.0,
}

# Grantham polarity
_POLARITY = {
    "A": 8.1, "R": 10.5, "N": 11.6, "D": 13.0, "C": 5.5,
    "Q": 10.5, "E": 12.3, "G": 9.0, "H": 10.4, "I": 5.2,
    "L": 4.9, "K": 11.3, "M": 5.7, "F": 5.2, "P": 8.0,
    "S": 9.2, "T": 8.6, "W": 5.4, "Y": 6.2, "V": 5.9,
}

# Charton polarizability
_POLARIZABILITY = {
    "A": 0.046, "R": 0.291, "N": 0.134, "D": 0.105, "C": 0.128,
    "Q": 0.180, "E": 0.151, "G": 0.000, "H": 0.230, "I": 0.186,
    "L": 0.186, "K": 0.219, "M": 0.221, "F": 0.290, "P": 0.131,
    "S": 0.062, "T": 0.108, "W": 0.409, "Y": 0.298, "V": 0.140,
}

# isoelectric point of the free amino acid
_PI = {
    "A": 6.00, "R": 10.76, "N": 5.41, "D": 2.77, "C": 5.07,
    "Q": 5.65, "E": 3.22, "G": 5.97, "H": 7.59, "I": 6.02,
    "L": 5.98, "K": 9.74, "M": 5.74, "F": 5.48, "P": 6.30,
    "S": 5.68, "T": 5.60, "W": 5.89, "Y": 5.66, "V": 5.96,
}

# Chou-Fasman alpha-helix propensity
_HELIX = {
    "A": 1.42, "R": 0.98, "N": 0.67, "D": 1.01, "C": 0.70,
    "Q": 1.11, "E": 1.51, "G": 0.57, "H": 1.00, "I": 1.08,
    "L": 1.21, "K": 1.16, "M": 1.45, "F": 1.13, "P": 0.57,
    "S": 0.77, "T": 0.83, "W": 1.08, "Y": 0.69, "V": 1.06,
}

STANDARD_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"

_DESCRIPTOR_TABLES = (
    _HYDROPATHY, _VOLUME, _POLARITY, _POLARIZABILITY, _PI, _HELIX,
)


def _build_vectors():
    class_of = {}
    for idx, members in enumerate(_CLASSES):
        for aa in members:
            class_of[aa] = idx
    raw = np.array(
        [[table[aa] for table in _DESCRIPTOR_TABLES] for aa in STANDARD_RESIDUES]
    )
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    scaled = (raw - lo) / (hi - lo)
    vectors = {}
    for i, aa in enumerate(STANDARD_RESIDUES):
        v = np.zeros(EMBED_DIM)
        v[class_of[aa]] = 1.0
        v[7:] = scaled[i]
        vectors[aa] = v
    # unknown residue: no class, descriptor means over the standard 20
    unknown = np.zeros(EMBED_DIM)
    unknown[7:] = scaled.mean(axis=0)
    return vectors, unknown


_VECTORS, _UNKNOWN_VECTOR = _build_vectors()


def embed_residue(aa):
    """13-dim feature vector for a one-letter residue code (copy, safe to mutate)."""
    vec = _VECTORS.get(aa.upper())
    if vec is None:
        warnings.warn(
            f"unknown residue code {aa!r}; using class-free mean descriptors",
            UnknownResidueWarning,
            stacklevel=2,
        )
        return _UNKNOWN_VECTOR.copy()
    return vec.copy()


def embed_chain(sequence):
    """Mean residue vector over a sequence; raises on empty input."""
    if not sequence:
        raise EmptySequenceError("cannot embed an empty sequence")
    out = np.zeros(EMBED_DIM)
    for aa in sequence:
        out += embed_residue(aa)
    out /= len(sequence)
    return out
