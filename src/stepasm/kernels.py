"""The two hot numeric kernels: rigid superposition (Kabsch) and the fused
superpose-and-score step.

They dominate dataset labelling and exhaustive oracle runs. ``geometry`` wraps
them with input validation and the rank check; everything else in the package
goes through ``geometry``.
"""

import numpy as np

# Read by the benchmark's environment record; nothing sets them.
HAVE_NUMBA = False


def active_backend():
    return "numpy"


def kabsch_transform(reference, mobile):
    """Least-squares rigid transform mapping ``mobile`` onto ``reference``.

    Returns (rotation, translation, singular_values). The singular values of
    the covariance are returned so the caller can detect rank deficiency; no
    silent fixing happens here beyond the standard determinant correction.
    """
    n = reference.shape[0]
    ref_centroid = np.sum(reference, axis=0) / n
    mob_centroid = np.sum(mobile, axis=0) / n
    ref_c = reference - ref_centroid
    mob_c = mobile - mob_centroid
    cov = mob_c.T @ ref_c
    u, svals, vt = np.linalg.svd(cov)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    if sign == 0.0:
        sign = 1.0
    correction = np.eye(3)
    correction[2, 2] = sign
    rotation = vt.T @ correction @ u.T
    translation = ref_centroid - rotation @ mob_centroid
    return rotation, translation, svals


def superpose_metrics(pred, gt, d0):
    """(TM with distance scale d0, RMSD) after superposing ``pred`` onto ``gt``.

    Fused because assembly labelling evaluates it once per candidate graph.
    """
    rotation, translation, _ = kabsch_transform(gt, pred)
    moved = pred @ rotation.T + translation
    diff = moved - gt
    sq = np.sum(diff * diff, axis=1)
    tm = np.mean(1.0 / (1.0 + sq / (d0 * d0)))
    rmsd = np.sqrt(np.mean(sq))
    return tm, rmsd
