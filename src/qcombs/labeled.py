"""Wire-labeled operators and vectors.

A *wire* is a named Hilbert-space factor with a fixed computational basis.
Operators and vectors carry an ordered tuple of wires; the matrix (or state
vector) is stored densely in the Kronecker convention where the leftmost
wire is the most significant index.  A scalar is an operator on an empty
wire tuple, stored as a 1x1 matrix.

The data keep their field: bool, integer and float data are stored in
float64 and complex data in complex128, and any other dtype raises
TypeError.  numpy's type promotion carries the field through tensor,
link_product, ptrace, sums and products.

All objects are immutable: every method returns a new instance, and each
holds a write-protected copy of the data it was given, so the caller's
array stays writable and later writes to it do not reach the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    DuplicateLabelError,
    NotAPermutationError,
    NotHermitianError,
    TooManyWiresError,
    UnknownLabelError,
)

# Relative Frobenius tolerance below which a matrix counts as Hermitian.
EPS_HERMITIAN = 1e-9

#: Most wires one einsum contraction can index: numpy has 52 axis ids, and
#: every wire takes two of them (its row and its column index).
MAX_EINSUM_WIRES = 26


@dataclass(frozen=True)
class Wire:
    """A labeled Hilbert-space factor of dimension ``dim``."""

    label: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"wire label must be a non-empty string, got {self.label!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"wire dimension must be a positive integer, got {self.dim!r}")


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


def _check_einsum_wires(n: int) -> None:
    if n > MAX_EINSUM_WIRES:
        raise TooManyWiresError(
            f"a contraction over {n} distinct wires exceeds the limit of "
            f"{MAX_EINSUM_WIRES}"
        )


def _psd_part(mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clip)."""
    h = (mat + mat.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _defect_and_min_eigenvalue(mat: np.ndarray) -> tuple[float, float]:
    """||D|| / 2 with D = M - M^dagger, and the smallest eigenvalue of the
    Hermitian part M - D / 2: the one rule of the dense checks, which
    report a non-Hermitian M through its defect and never raise on it."""
    half = (mat - mat.conj().T) / 2.0
    return float(np.linalg.norm(half)), float(np.linalg.eigvalsh(mat - half)[0])


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
            raise ValueError(
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

    @classmethod
    def scalar(cls, value: complex) -> "LabeledOperator":
        """The trivial operator on no wires (a number in operator clothing)."""
        return cls((), np.array([[value]]))

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def is_hermitian(self) -> bool:
        n = np.linalg.norm(self.matrix - self.matrix.conj().T)
        return n <= EPS_HERMITIAN * max(np.linalg.norm(self.matrix), 1e-300)

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

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        """Operator product, aligning the right factor's wire order first."""
        return self._wrap(self.wires, self.matrix @ self._aligned(other).matrix)

    def adjoint(self) -> "LabeledOperator":
        return self._wrap(self.wires, self.matrix.conj().T)

    def conj(self) -> "LabeledOperator":
        return self._wrap(self.wires, self.matrix.conj())

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

    def ptrace(self, labels: Iterable[str]) -> "LabeledOperator":
        """Partial trace over ``labels``.

        Tracing every wire yields the scalar operator (empty wire tuple).
        """
        labels = list(labels)
        traced = set()
        for lbl in labels:
            self.wire(lbl)
            if lbl in traced:
                raise DuplicateLabelError(f"label {lbl!r} listed twice")
            traced.add(lbl)
        if not traced:
            return self
        n = len(self.wires)
        _check_einsum_wires(n)
        dims = self.dims
        view = self.matrix.reshape(dims + dims)
        row_sub = list(range(n))
        col_sub = [
            i if self.wires[i].label in traced else n + i for i in range(n)
        ]
        keep = [i for i in range(n) if self.wires[i].label not in traced]
        out_sub = keep + [n + i for i in keep]
        res = np.einsum(view, row_sub + col_sub, out_sub)
        new_wires = tuple(self.wires[i] for i in keep)
        d = _total_dim(new_wires)
        return self._wrap(new_wires, res.reshape(d, d))

    def ptranspose(self, labels: Iterable[str]) -> "LabeledOperator":
        """Partial transpose on ``labels`` (an involution)."""
        labels = list(labels)
        marked = set()
        for lbl in labels:
            self.wire(lbl)
            marked.add(lbl)
        if not marked:
            return self
        n = len(self.wires)
        dims = self.dims
        view = self.matrix.reshape(dims + dims)
        axes = []
        for i in range(n):
            axes.append(n + i if self.wires[i].label in marked else i)
        for i in range(n):
            axes.append(i if self.wires[i].label in marked else n + i)
        d = self.dim
        return self._wrap(self.wires, view.transpose(axes).reshape(d, d))

    def relabeled(self, mapping: Mapping[str, str]) -> "LabeledOperator":
        """Rename wires; ``mapping`` sends old labels to new ones."""
        for old in mapping:
            self.wire(old)
        new_wires = tuple(
            Wire(mapping.get(w.label, w.label), w.dim) for w in self.wires
        )
        return self._wrap(_check_wires(new_wires), self.matrix)

    def split_wire(self, label: str, parts: Sequence[Wire]) -> "LabeledOperator":
        """Reinterpret one wire as a tensor product of ``parts`` (no data change).

        The product of the part dimensions must equal the wire's dimension;
        the parts inherit the Kronecker convention of the composite index.
        """
        i = self._position(label)
        parts = tuple(parts)
        if _total_dim(parts) != self.wires[i].dim:
            raise DimMismatchError(
                f"parts of total dimension {_total_dim(parts)} cannot replace "
                f"wire {label!r} of dimension {self.wires[i].dim}"
            )
        new_wires = _check_wires(self.wires[:i] + parts + self.wires[i + 1 :])
        return self._wrap(new_wires, self.matrix)

    def merge_wires(self, labels: Sequence[str], merged: Wire) -> "LabeledOperator":
        """Fuse consecutive wires (listed in their current order) into one."""
        labels = list(labels)
        positions = [self._position(lbl) for lbl in labels]
        if positions != list(range(positions[0], positions[0] + len(labels))):
            raise NotAPermutationError(
                f"{labels} are not consecutive wires in order {self.labels}"
            )
        i = positions[0]
        total = _total_dim(self.wires[p] for p in positions)
        if merged.dim != total:
            raise DimMismatchError(
                f"merged wire dim {merged.dim} != product of parts {total}"
            )
        new_wires = _check_wires(
            self.wires[:i] + (merged,) + self.wires[i + len(labels) :]
        )
        return self._wrap(new_wires, self.matrix)

    # -- spectral operations --------------------------------------------------

    def _require_hermitian(self):
        if not self.is_hermitian():
            gap = np.linalg.norm(self.matrix - self.matrix.conj().T)
            raise NotHermitianError(
                f"operator is not Hermitian (defect {gap:.3e}, norm {self.norm():.3e})"
            )

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of a Hermitian operator.

        Returns:
            ``(w, V)`` with eigenvalues ``w`` ascending and eigenvectors as
            the columns of ``V``.

        Raises:
            NotHermitianError: if the relative Hermiticity defect exceeds
                the package tolerance.
        """
        self._require_hermitian()
        return np.linalg.eigh(self.hermitized().matrix)

    def psd_projection(self) -> "LabeledOperator":
        """Frobenius-nearest positive semidefinite operator (eigenvalue clip)."""
        self._require_hermitian()
        return self._wrap(self.wires, _psd_part(self.matrix))

    def min_eigenvalue(self) -> float:
        self._require_hermitian()
        return float(np.linalg.eigvalsh(self.hermitized().matrix)[0])


class LabeledVector(_Wired):
    """A state vector over an ordered tuple of labeled wires."""

    __slots__ = ("wires", "vector")

    def __init__(self, wires: Sequence[Wire], vector: np.ndarray):
        wires = _check_wires(wires)
        vector = _frozen(np.array(vector).reshape(-1))
        d = _total_dim(wires)
        if vector.shape != (d,):
            raise ValueError(
                f"vector length {vector.shape[0]} does not match total dimension {d}"
            )
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def conj(self) -> "LabeledVector":
        return LabeledVector(self.wires, self.vector.conj())

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

