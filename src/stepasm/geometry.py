"""Rigid-body superposition and structural similarity over alpha-carbon traces.

All functions operate on (L, 3) float arrays of CA coordinates in angstrom.
Correspondence between two structures is positional: row i of one array is
compared against row i of the other, so inputs must have equal length.

Overview
--------
kabsch_align(reference, mobile)
    Closed-form least-squares rigid transform mapping mobile onto reference.
apply_transform(t, coords)
    Apply a RigidTransform to a coordinate set.
rmsd(a, b)
    Root-mean-square deviation with NO superposition (raw positional error).
aligned_rmsd(pred, gt)
    RMSD after optimal superposition of pred onto gt.
tm_score(pred, gt)
    Length-normalized similarity in (0, 1]; 1 means identical placement.
    Computed after a single global superposition of pred onto gt.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, LengthMismatchError

# Rank threshold for the Kabsch covariance: second singular value below this
# fraction of the first means the points are (numerically) collinear.
_RANK_RTOL = 1e-9

# d0 from the cube-root length formula goes non-positive for L <= 18.
_D0_FLOOR = 0.5


def as_coords(x, name="coords"):
    """Validate and return an (L, 3) float64 coordinate array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
        raise ValueError(f"{name}: expected (L, 3) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite coordinates")
    return np.ascontiguousarray(arr)


def _check_same_length(a, b):
    if a.shape[0] != b.shape[0]:
        raise LengthMismatchError(
            f"coordinate sets differ in length: {a.shape[0]} vs {b.shape[0]}"
        )


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        tra = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or tra.shape != (3,):
            raise ValueError("RigidTransform needs a 3x3 rotation and 3-vector")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    def is_proper(self, tol=1e-8):
        rot = self.rotation
        ortho = np.abs(rot @ rot.T - np.eye(3)).max() <= tol
        return bool(ortho and abs(np.linalg.det(rot) - 1.0) <= tol)

    def apply(self, coords):
        return apply_transform(self, coords)

    def inverse(self):
        rot_inv = self.rotation.T
        return RigidTransform(rot_inv, -rot_inv @ self.translation)


def kabsch_align(reference, mobile):
    """Optimal rigid transform T minimizing RMSD(reference, T(mobile)).

    Requires at least 3 non-collinear points. The improper-rotation case is
    corrected by flipping the smallest singular direction; a rank-deficient
    covariance (collinear input) raises DegenerateGeometryError instead of
    being silently patched.
    """
    ref = as_coords(reference, "reference")
    mob = as_coords(mobile, "mobile")
    _check_same_length(ref, mob)
    if ref.shape[0] < 3:
        raise LengthMismatchError("kabsch_align needs at least 3 points")
    rotation, translation, svals = kernels.kabsch_transform(ref, mob)
    scale = max(svals[0], 1e-30)
    if svals[1] / scale < _RANK_RTOL:
        raise DegenerateGeometryError(
            "covariance is rank-deficient (collinear or coincident points); "
            f"singular values {svals.tolist()}"
        )
    return RigidTransform(rotation, translation)


def apply_transform(t, coords):
    """Map every point p to rotation @ p + translation."""
    pts = as_coords(coords)
    return pts @ t.rotation.T + t.translation


def rmsd(a, b):
    """sqrt(mean squared pointwise distance); no superposition performed."""
    x = as_coords(a, "a")
    y = as_coords(b, "b")
    _check_same_length(x, y)
    diff = x - y
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def aligned_rmsd(pred, gt):
    """RMSD after Kabsch superposition of pred onto gt."""
    p = as_coords(pred, "pred")
    g = as_coords(gt, "gt")
    _check_same_length(p, g)
    _, value = kernels.superpose_metrics(p, g, 1.0)
    return float(value)


def tm_d0(length):
    """Length-dependent distance scale, clamped below at 0.5 for short chains."""
    d0 = 1.24 * (length - 15.0) ** (1.0 / 3.0) if length > 15 else 0.0
    d0 -= 1.8
    return max(d0, _D0_FLOOR)


def tm_score(pred, gt):
    """TM = mean_i 1 / (1 + (d_i / d0(L))^2) after superposing pred onto gt."""
    p = as_coords(pred, "pred")
    g = as_coords(gt, "gt")
    _check_same_length(p, g)
    if p.shape[0] < 3:
        raise LengthMismatchError("tm_score needs at least 3 points")
    tm, _ = kernels.superpose_metrics(p, g, tm_d0(p.shape[0]))
    return float(tm)


def superposed_scores(pred, gt):
    """(tm_score, aligned_rmsd) from a single superposition; used by eval."""
    p = as_coords(pred, "pred")
    g = as_coords(gt, "gt")
    _check_same_length(p, g)
    tm, rms = kernels.superpose_metrics(p, g, tm_d0(p.shape[0]))
    return float(tm), float(rms)


def random_rotation(rng):
    """Uniform random proper rotation (QR of a Gaussian matrix, det fixed)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q
