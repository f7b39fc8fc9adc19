"""Pauli bases and the transfer-matrix / process-matrix representations.

Index conventions used throughout:

* labels are strings over ``IXYZ``, leftmost qubit slowest,
* the numeric index of a label is its base-4 value with I=0, X=1, Y=2, Z=3,
* vectorization is row-major, ``vec(M) = M.reshape(-1)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .linalg import ShapeError, tensor

PAULI_LETTERS = "IXYZ"

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_labels(n: int) -> list[str]:
    """All length-n Pauli labels in index order."""
    return ["".join(p) for p in itertools.product(PAULI_LETTERS, repeat=n)]


def label_index(label: str) -> int:
    """The label's base-4 index; :class:`ShapeError` for a letter outside IXYZ."""
    idx = 0
    for ch in label:
        if (digit := PAULI_LETTERS.find(ch)) < 0:
            raise ShapeError(f"bad Pauli label {label!r}: not a {len(label)}-qubit label over IXYZ")
        idx = 4 * idx + digit
    return idx


def pauli_matrix(label: str) -> np.ndarray:
    label_index(label)  # refuses a letter outside IXYZ
    return tensor(*(_SINGLE[ch] for ch in label))


@lru_cache(maxsize=None)
def pauli_basis(n: int) -> tuple[np.ndarray, ...]:
    """The 4**n Pauli matrices for n qubits, in label order."""
    return tuple(pauli_matrix(lbl) for lbl in pauli_labels(n))


# +1 where single-qubit Paulis commute, -1 where they anticommute, in IXYZ order.
_COMMUTE = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)


@lru_cache(maxsize=None)
def commutation_signs(n: int) -> np.ndarray:
    """Signs s[a, b] with G_a G_b G_a = s[a, b] G_b, for n-qubit labels (read-only)."""
    signs = reduce(np.kron, [_COMMUTE] * n, np.ones((1, 1)))
    signs.setflags(write=False)
    return signs


# Columns are the vectorized one-qubit Paulis vec(g_a), rows (r, c) of g;
# :func:`tooth_basis` is the Kronecker product of n copies.
_VEC = np.array([g.reshape(-1) for g in _SINGLE.values()]).T


def _pair_order(k: int) -> list[int]:
    """Axes (row_1..row_k, col_1..col_k) regrouped as (row_i, col_i) pairs."""
    return [ax for i in range(k) for ax in (i, i + k)]


def _each_axis(x: np.ndarray, mat_t: np.ndarray, axes: int) -> np.ndarray:
    """``(mat (x) ... (x) mat)`` on the ``axes`` leading axes of ``x``, given
    ``mat_t = mat.T``, for ``x`` read as (k,)*axes + (rest,).

    Each matmul contracts the leading axis and appends its image last, so
    the result is (rest, n**axes), the new axes in order, with no copy
    between steps.
    """
    k, n = mat_t.shape
    for _ in range(axes):
        x = x.reshape(k, -1).T @ mat_t
    return x.reshape(-1, n**axes)


@lru_cache(maxsize=None)
def tooth_basis(n: int) -> np.ndarray:
    """Vectorized n-qubit Paulis with rows in a tooth's (in, out) wire order (read-only)."""
    # Rows of the Kronecker product run (r_1, c_1, ..., r_n, c_n); a tooth
    # reads out = r and in = c, its input wires slowest.
    b = reduce(np.kron, [_VEC] * n).reshape((2,) * (2 * n) + (4**n,))
    b = b.transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2), 2 * n]).reshape(4**n, 4**n)
    b.setflags(write=False)
    return b


@lru_cache(maxsize=None)
def tooth_kernel(n: int) -> np.ndarray:
    """Kernel K[(r, c), a] = conj(b[r, a]) b[c, a] of one tooth (read-only).

    ``b`` is :func:`tooth_basis`, ``r`` and ``c`` a row and a column pair
    of a tooth's wires.  K maps the d**4 entries one tooth holds of a
    comb operator to its 4**n Pauli diagonal terms, and conj(K) maps them
    back.
    """
    d = 2**n
    b = tooth_basis(n)
    k = (b.conj()[:, None, :] * b[None, :, :]).reshape(d**4, 4**n)
    k.setflags(write=False)
    return k


def qubit_count(d: int) -> int:
    """The number of qubits n with 2**n == d; ValueError for any other d."""
    n = int(d).bit_length() - 1
    if 2**n != d:
        raise ValueError(f"dimension {d} is not a power of two; only qubit systems are supported")
    return n


def _pauli_coords(x: np.ndarray, teeth: int, d_sys: int) -> np.ndarray:
    """``(B^dag x)^T``, one row per column of ``x``, for B as in
    :func:`tooth_sandwich`: each column, a vector on the comb's wires, in
    Pauli coordinates, contracted one tooth at a time."""
    return _each_axis(x, tooth_basis(qubit_count(d_sys)).conj(), teeth)


def tooth_sandwich(x: np.ndarray, teeth: int, d_sys: int) -> np.ndarray:
    """``B^dag x B`` for B the Kronecker product of ``teeth`` copies of
    :func:`tooth_basis`, contracted one tooth at a time, rows first.

    Every Pauli view of a comb or a channel is this sandwich: ``x`` lists
    each tooth's (in, out) wire pair on its rows and on its columns, tooth 1
    slowest, and a channel is the one-tooth case.
    """
    return _each_axis(_pauli_coords(x, teeth, d_sys), tooth_basis(qubit_count(d_sys)), teeth)


def tooth_ptm(x: np.ndarray, teeth: int, d_sys: int) -> np.ndarray:
    """Pauli transfer matrix R[a, b] = Tr[G_a E(G_b)] / d**M of the map whose
    operator ``x`` lies on comb wires (in_1, out_1, ..., in_M, out_M).

    R is ``B^dag S B / d**M`` for the superoperator S, which holds the
    outputs' row and column on its rows and the inputs' row and column on
    its columns.  :func:`tooth_basis` reads a wire pair as (column, row) of
    the Pauli, so one transpose realigns ``x`` for :func:`tooth_sandwich`:
    each tooth's (out column, out row) pair on the rows and its (in column,
    in row) pair on the columns.  Assumes a Hermiticity-preserving map, so
    R is real.
    """
    d, m = d_sys, teeth
    rows = [ax for k in range(m) for ax in (2 * m + 2 * k + 1, 2 * k + 1)]
    cols = [ax for k in range(m) for ax in (2 * m + 2 * k, 2 * k)]
    s = x.reshape((d,) * (4 * m)).transpose(rows + cols).reshape(d ** (2 * m), -1)
    return tooth_sandwich(s, m, d).real / d**m


def offdiag_mass(chi: np.ndarray) -> float:
    """Summed magnitude of the off-diagonal entries; zero for Pauli channels."""
    return float(np.abs(chi).sum() - np.abs(np.diag(chi)).sum())
