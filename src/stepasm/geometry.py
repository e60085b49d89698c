"""Rigid-body superposition and structural similarity over alpha-carbon traces.

All functions operate on (L, 3) float arrays of CA coordinates in angstrom.
Correspondence between two structures is positional: row i of one array is
compared against row i of the other, so inputs must have equal length.

Overview
--------
kabsch_align(reference, mobile)
    Closed-form least-squares rigid transform mapping mobile onto reference.
kabsch_fits(references, mobiles)
    kabsch_align of many equal-length pairs, as one stacked fit.
apply_transform(t, coords)
    Apply a RigidTransform to a coordinate set.
rmsd(a, b)
    Root-mean-square deviation with NO superposition (raw positional error).
aligned_rmsd(pred, gt)
    RMSD after optimal superposition of pred onto gt.
tm_score(pred, gt)
    Length-normalized similarity in (0, 1]; 1 means identical placement.
    Computed after a single global superposition of pred onto gt.
tm_scores(preds, gt)
    tm_score of every prediction in a stack, superposed in one batch.
"""

from dataclasses import dataclass

import numpy as np

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


def _kabsch_transform(reference, mobile):
    """Least-squares rigid transforms mapping ``mobile`` onto ``reference``.

    Both are (..., L, 3) stacks that broadcast over their leading axes; each
    stacked pair gets its own fit. Returns (rotation (..., 3, 3), translation
    (..., 3), singular_values (..., 3)). The singular values of the covariance
    are returned so the caller can detect rank deficiency; no silent fixing
    happens here beyond the standard determinant correction.
    """
    n = reference.shape[-2]
    # the sums of np.sum(x, axis=-2), in the same order, without its slow
    # length-3 inner loop on stacks
    ref_centroid = np.einsum("...li->...i", reference) / n
    mob_centroid = np.einsum("...li->...i", mobile) / n
    ref_c = reference - ref_centroid[..., None, :]
    mob_c = mobile - mob_centroid[..., None, :]
    cov = np.swapaxes(mob_c, -1, -2) @ ref_c
    u, svals, vt = np.linalg.svd(cov)
    v = np.swapaxes(vt, -1, -2)
    u_t = np.swapaxes(u, -1, -2)
    sign = np.sign(np.linalg.det(v @ u_t))
    # diag(1, 1, sign) between v and u^T: flip v's last column
    v[..., 2] *= np.where(sign == 0.0, 1.0, sign)[..., None]
    rotation = v @ u_t
    translation = ref_centroid - (rotation @ mob_centroid[..., None])[..., 0]
    return rotation, translation, svals


def _superpose_metrics(pred, gt, d0):
    """(TM with distance scale d0, RMSD) after superposing ``pred`` onto ``gt``.

    ``pred`` may be a (..., L, 3) stack scored against one (L, 3) ``gt``: the
    assembly oracle superposes a batch of trees this way.
    """
    rotation, translation, _ = _kabsch_transform(gt, pred)
    diff = pred @ np.swapaxes(rotation, -1, -2)
    diff += translation[..., None, :]
    diff -= gt
    sq = np.einsum("...i,...i->...", diff, diff)
    tm = np.mean(1.0 / (1.0 + sq / (d0 * d0)), axis=-1)
    rmsd = np.sqrt(np.mean(sq, axis=-1))
    return tm, rmsd


def _checked_fit(ref, mob):
    """``_kabsch_transform`` of one pair or a stack of pairs of equal length,
    refusing fewer than 3 points and a rank-deficient covariance."""
    if ref.shape[-2] < 3:
        raise LengthMismatchError("kabsch_align needs at least 3 points")
    rotation, translation, svals = _kabsch_transform(ref, mob)
    for fit in svals.reshape(-1, 3).tolist():
        if fit[1] / max(fit[0], 1e-30) < _RANK_RTOL:
            raise DegenerateGeometryError(
                "covariance is rank-deficient (collinear or coincident points); "
                f"singular values {fit}"
            )
    return rotation, translation


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
    return RigidTransform(*_checked_fit(ref, mob))


def kabsch_fits(references, mobiles):
    """``kabsch_align(references[i], mobiles[i])`` for every i, as one stacked
    fit: (rotations (M, 3, 3), translations (M, 3)), each the bits of the
    single fit.

    The inputs are validated (L, 3) arrays, such as a ``DimerLibrary`` holds,
    and all 2M of them must have one length. ``kabsch_align``'s checks apply
    to every fit.
    """
    lengths = {len(x) for x in references + mobiles}
    if len(lengths) > 1:
        raise LengthMismatchError(
            f"coordinate sets differ in length: {sorted(lengths)}"
        )
    return _checked_fit(np.array(references), np.array(mobiles))


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
    _, value = _superpose_metrics(p, g, 1.0)
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
    tm, _ = _superpose_metrics(p, g, tm_d0(p.shape[0]))
    return float(tm)


def tm_scores(preds, gt):
    """tm_score of each (L, 3) prediction in a (T, L, 3) stack against one gt.

    All T superpositions run as one batch: stacked products and one SVD call
    over (T, 3, 3) covariances.
    """
    p = np.asarray(preds, dtype=np.float64)
    g = as_coords(gt, "gt")
    if p.ndim != 3 or p.shape[2] != 3:
        raise ValueError(f"preds: expected (T, L, 3) array, got shape {p.shape}")
    if p.shape[1] != g.shape[0]:
        raise LengthMismatchError(
            f"coordinate sets differ in length: {p.shape[1]} vs {g.shape[0]}"
        )
    if g.shape[0] < 3:
        raise LengthMismatchError("tm_score needs at least 3 points")
    tm, _ = _superpose_metrics(p, g, tm_d0(g.shape[0]))
    return tm


def superposed_scores(pred, gt):
    """(tm_score, aligned_rmsd) from a single superposition; used by eval."""
    p = as_coords(pred, "pred")
    g = as_coords(gt, "gt")
    _check_same_length(p, g)
    tm, rms = _superpose_metrics(p, g, tm_d0(p.shape[0]))
    return float(tm), float(rms)


def random_rotation(rng):
    """Uniform random proper rotation (QR of a Gaussian matrix, det fixed)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q
