"""Wire-labeled operators and vectors.

A *wire* is a named Hilbert-space factor with a fixed computational basis.
Operators and vectors carry an ordered tuple of wires; the matrix (or state
vector) is stored densely in the Kronecker convention where the leftmost
wire is the most significant index.  A scalar is an operator on an empty
wire tuple, stored as a 1x1 matrix.

The data keep their field: bool, integer and float data are stored in
float64 and complex data in complex128, and any other dtype raises
TypeError.  numpy's type promotion carries the field through tensor,
link_product, sums and products.

All objects are immutable: every method returns a new instance, and each
holds a write-protected copy of the data it was given, so the caller's
array stays writable and later writes to it do not reach the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateLabelError,
    InvalidArgumentError,
    NotAPermutationError,
    NotHermitianError,
    UnknownLabelError,
)

# Relative Frobenius tolerance below which a matrix counts as Hermitian.
EPS_HERMITIAN = 1e-9

#: Default verification tolerance.
TOL_VERIFY = 1e-9

@dataclass(frozen=True)
class Wire:
    """A labeled Hilbert-space factor of dimension ``dim``."""

    label: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise InvalidArgumentError(f"wire label must be a non-empty string, got {self.label!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidArgumentError(f"wire dimension must be a positive integer, got {self.dim!r}")


def _check_wires(wires: Sequence[Wire]) -> tuple[Wire, ...]:
    wires = tuple(wires)
    seen = {}
    for w in wires:
        if not isinstance(w, Wire):
            raise TypeError(f"expected Wire, got {type(w).__name__}")
        if w.label in seen:
            raise DuplicateLabelError(f"label {w.label!r} occurs more than once")
        seen[w.label] = w
    return wires


def _total_dim(wires: Iterable[Wire]) -> int:
    return math.prod(w.dim for w in wires)


def _check_order(order: Sequence[str], labels: tuple[str, ...]) -> tuple[str, ...]:
    """``order`` as a tuple, checked to list every one of ``labels`` once."""
    order = tuple(order)
    if sorted(order) != sorted(labels):
        for lbl in order:
            if lbl not in labels:
                raise UnknownLabelError(f"no wire labeled {lbl!r}")
        raise NotAPermutationError(f"{order} is not a permutation of {labels}")
    return order


def _psd_part(mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clip)."""
    h = (mat + mat.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _marginals(k: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """M_w = Tr_{dims[w:]}[X], w = 0 .. len(dims), for each X of the stack k
    (s, D, D) whose last wires have the dims; each is a trace of the next."""
    marg = [k]
    for d in reversed(dims):
        h = marg[-1].shape[1] // d
        marg.append(np.einsum("saibi->sab", marg[-1].reshape(-1, h, d, h, d)))
    marg.reverse()
    return marg


def _level_residuals(mat: np.ndarray, dims: Sequence[int]) -> list[float]:
    """Residuals of the comb conditions of mat on wires of dims (in_0, out_0,
    in_1, ...): level n is ||M_{2n+1} / c_n - M_{2n} / (c_n d_in_n) (x)
    I_in_n||_F, c_n the product of the input dims after tooth n and M the
    _marginals, with I_in_0 alone at level 0 to pin the normalization."""
    marg, ins, residuals = _marginals(mat[None], dims), dims[::2], []
    for n, d in enumerate(ins):
        c = math.prod(ins[n + 1 :])
        head = marg[2 * n][0] / (c * d) if n else np.ones((1, 1))
        gap = marg[2 * n + 1][0] / c - np.kron(head, np.eye(d))
        residuals.append(float(np.linalg.norm(gap)))
    return residuals


def _frozen(arr) -> np.ndarray:
    """``arr`` contiguous and write-protected, in complex128 or float64."""
    arr = np.asarray(arr)
    if arr.dtype.kind not in "biufc":
        raise TypeError(f"operator data must be numeric, got dtype {arr.dtype}")
    out = np.ascontiguousarray(arr, dtype=complex if arr.dtype.kind == "c" else float)
    out.setflags(write=False)
    return out


class _Wired:
    """Label and dimension views of an ordered ``wires`` tuple, and the
    lookup of one wire by its label."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(w.label for w in self.wires)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.dim for w in self.wires)

    def wire(self, label: str) -> Wire:
        return self.wires[self._position(label)]

    def _position(self, label: str) -> int:
        for i, w in enumerate(self.wires):
            if w.label == label:
                return i
        raise UnknownLabelError(f"no wire labeled {label!r}")


class LabeledOperator(_Wired):
    """A dense operator acting on an ordered tuple of labeled wires.

    Args:
        wires: the wire tuple; labels must be unique.
        matrix: square real or complex matrix of size ``prod(dims) x prod(dims)``.
    """

    __slots__ = ("wires", "matrix")

    def __init__(self, wires: Sequence[Wire], matrix: np.ndarray):
        self._set(wires, _frozen(np.array(matrix)))

    @classmethod
    def _wrap(cls, wires: Sequence[Wire], matrix: np.ndarray) -> "LabeledOperator":
        """The operator on ``matrix`` itself, not a copy: for an array that no
        caller can write, a result just computed or another operator's."""
        op = object.__new__(cls)
        op._set(wires, _frozen(matrix))
        return op

    def _set(self, wires: Sequence[Wire], matrix: np.ndarray) -> None:
        wires = _check_wires(wires)
        d = _total_dim(wires)
        if matrix.shape != (d, d):
            raise InvalidArgumentError(
                f"matrix shape {matrix.shape} does not match total dimension {d} "
                f"of wires {[w.label for w in wires]}"
            )
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledOperator is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, wires: Sequence[Wire]) -> "LabeledOperator":
        return cls._wrap(wires, np.eye(_total_dim(wires)))

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def is_hermitian(self) -> bool:
        scale = np.linalg.norm(self.matrix)
        n = np.linalg.norm(self.matrix - self.matrix.conj().T)
        return np.isfinite(scale) and n <= EPS_HERMITIAN * max(scale, 1e-300)

    def __repr__(self):
        spec = ", ".join(f"{w.label}:{w.dim}" for w in self.wires)
        return f"LabeledOperator([{spec}], dim={self.dim})"

    # -- arithmetic ------------------------------------------------------------

    def _aligned(self, other: "LabeledOperator") -> "LabeledOperator":
        """Return ``other`` permuted to this operator's wire order."""
        if self.wires == other.wires:
            return other
        other = other.permuted(self.labels)
        if self.wires != other.wires:
            raise DimMismatchError(
                f"wire tuples differ: {self.wires} vs {other.wires}"
            )
        return other

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._wrap(self.wires, self.matrix + self._aligned(other).matrix)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self._wrap(self.wires, self.matrix - self._aligned(other).matrix)

    def __mul__(self, scalar: complex) -> "LabeledOperator":
        return self._wrap(self.wires, self.matrix * scalar)

    __rmul__ = __mul__

    def hermitized(self) -> "LabeledOperator":
        return self._wrap(self.wires, 0.5 * (self.matrix + self.matrix.conj().T))

    # -- structural operations ---------------------------------------------------

    def tensor(self, other: "LabeledOperator") -> "LabeledOperator":
        """Tensor product; label sets must be disjoint."""
        wires = _check_wires(self.wires + other.wires)
        return self._wrap(wires, np.kron(self.matrix, other.matrix))

    def permuted(self, order: Sequence[str]) -> "LabeledOperator":
        """Reorder wires to ``order``, which must list every label exactly once."""
        order = _check_order(order, self.labels)
        if order == self.labels:
            return self
        n = len(self.wires)
        pos = [self._position(lbl) for lbl in order]
        dims = self.dims
        view = self.matrix.reshape(dims + dims)
        axes = pos + [n + p for p in pos]
        new_wires = tuple(self.wires[p] for p in pos)
        d = self.dim
        return self._wrap(new_wires, view.transpose(axes).reshape(d, d))

    # -- spectral operations --------------------------------------------------

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of a Hermitian operator.

        Returns:
            ``(w, V)`` with eigenvalues ``w`` ascending and eigenvectors as
            the columns of ``V``.

        Raises:
            NotHermitianError: if the relative Hermiticity defect exceeds
                the package tolerance.
        """
        if not self.is_hermitian():
            gap = np.linalg.norm(self.matrix - self.matrix.conj().T)
            raise NotHermitianError(
                f"operator is not Hermitian (defect {gap:.3e}, norm {self.norm():.3e})"
            )
        return np.linalg.eigh(self.hermitized().matrix)


class LabeledVector(_Wired):
    """A state vector over an ordered tuple of labeled wires."""

    __slots__ = ("wires", "vector")

    def __init__(self, wires: Sequence[Wire], vector: np.ndarray):
        wires = _check_wires(wires)
        vector = _frozen(np.array(vector).reshape(-1))
        d = _total_dim(wires)
        if vector.shape != (d,):
            raise InvalidArgumentError(
                f"vector length {vector.shape[0]} does not match total dimension {d}"
            )
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledVector is immutable")

    def tensor(self, other: "LabeledVector") -> "LabeledVector":
        wires = _check_wires(self.wires + other.wires)
        return LabeledVector(wires, np.kron(self.vector, other.vector))

    def permuted(self, order: Sequence[str]) -> "LabeledVector":
        order = _check_order(order, self.labels)
        if order == self.labels:
            return self
        axes = [self._position(lbl) for lbl in order]
        view = self.vector.reshape(self.dims)
        new_wires = tuple(self.wires[a] for a in axes)
        return LabeledVector(new_wires, view.transpose(axes).reshape(-1))

    def outer(self) -> LabeledOperator:
        """The rank-one operator ``|v><v|``."""
        outer = np.outer(self.vector, self.vector.conj())
        return LabeledOperator._wrap(self.wires, outer)

    def __repr__(self):
        spec = ", ".join(f"{w.label}:{w.dim}" for w in self.wires)
        return f"LabeledVector([{spec}])"

