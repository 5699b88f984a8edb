"""Haar-distributed unitaries and isometries.

Sampling goes through the QR decomposition of a complex Ginibre matrix
with the phases of the diagonal of R divided out, which makes the
resulting Q exactly Haar distributed rather than merely Haar up to the
QR sign convention.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex matrix with i.i.d. standard complex Gaussian entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_isometry(dim_out: int, dim_in: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry of shape (dim_out, dim_in), dim_out >= dim_in."""
    if dim_out < dim_in:
        raise InvalidArgumentError(
            f"an isometry needs dim_out >= dim_in, got {dim_out} < {dim_in}"
        )
    g = ginibre(dim_out, dim_in, rng)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary of the given dimension."""
    return haar_isometry(dim, dim, rng)
