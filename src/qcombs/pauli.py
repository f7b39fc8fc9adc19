"""Pauli bases and the transfer-matrix / process-matrix representations.

Index conventions used throughout:

* labels are strings over ``IXYZ``, leftmost qubit slowest,
* the numeric index of a label is its base-4 value with I=0, X=1, Y=2, Z=3,
* vectorization is row-major, ``vec(M) = M.reshape(-1)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import isqrt

import numpy as np

from .linalg import tensor

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
    idx = 0
    for ch in label:
        idx = 4 * idx + PAULI_LETTERS.index(ch)
    return idx


def pauli_matrix(label: str) -> np.ndarray:
    for ch in label:
        if ch not in PAULI_LETTERS:
            raise ValueError(f"bad Pauli letter {ch!r} in {label!r}")
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


@lru_cache(maxsize=None)
def _vec_basis(n: int) -> np.ndarray:
    """Matrix whose columns are the vectorized Pauli matrices.

    Satisfies B^dag B = B B^dag = 2**n * identity.
    """
    cols = [g.reshape(-1) for g in pauli_basis(n)]
    return np.array(cols, dtype=complex).T


@lru_cache(maxsize=None)
def tooth_basis(n: int) -> np.ndarray:
    """:func:`_vec_basis` with its rows in a tooth's (in, out) wire order (read-only)."""
    d = 2**n
    b = _vec_basis(n).reshape(d, d, 4**n).transpose(1, 0, 2).reshape(d * d, 4**n)
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


def _qubits_from_dim(d_sq: int) -> int:
    d = isqrt(d_sq)
    if d * d != d_sq:
        raise ValueError(f"matrix size {d_sq} is not a perfect square")
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValueError(f"dimension {d} is not a power of two")
    return n


def chi_from_choi(choi: np.ndarray) -> np.ndarray:
    """Process matrix chi with E(rho) = sum_ab chi[a,b] G_a rho G_b.

    For a trace-preserving map the diagonal of chi sums to one.
    """
    n = _qubits_from_dim(choi.shape[0])
    b = _vec_basis(n)
    d = 2**n
    return b.conj().T @ choi @ b / d**2


def offdiag_mass(chi: np.ndarray) -> float:
    """Summed magnitude of the off-diagonal entries; zero for Pauli channels."""
    return float(np.abs(chi).sum() - np.abs(np.diag(chi)).sum())


def choi_from_chi(chi: np.ndarray) -> np.ndarray:
    n = _qubits_from_dim(chi.shape[0])
    b = _vec_basis(n)
    return b @ chi @ b.conj().T


def ptm_from_superop(s: np.ndarray) -> np.ndarray:
    """Pauli transfer matrix R[a,b] = Tr[G_a E(G_b)] / 2**n.

    Assumes a Hermiticity-preserving map, so R is real.
    """
    n = _qubits_from_dim(s.shape[0])
    b = _vec_basis(n)
    d = 2**n
    return (b.conj().T @ s @ b).real / d


def superop_from_ptm(r: np.ndarray) -> np.ndarray:
    n = _qubits_from_dim(r.shape[0])
    b = _vec_basis(n)
    d = 2**n
    return b @ r.astype(complex) @ b.conj().T / d
