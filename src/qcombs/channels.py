"""Quantum channels in the Choi representation.

A channel from a d_in level system to a d_out level system is stored
through its Choi matrix on the (output, input) wire pair,

    choi = sum_ij E(|i><j|) (x) |i><j|,

which for Kraus operators K reads sum_K vec(K) vec(K)^dag with row-major
vectorization.  Complete positivity is positivity of this matrix and
trace preservation is Tr_out[choi] = identity on the input wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ShapeError,
    check_shape,
    check_unitary,
    choi_to_superop,
    is_hermitian,
    partial_trace,
    permute_wires,
    psd_check,
    superop_to_choi,
    tensor,
)
from .pauli import label_index, pauli_basis, pauli_labels, tooth_ptm, tooth_sandwich


@dataclass(frozen=True, eq=False)
class Channel:
    """A linear map between density matrices, stored as a Choi matrix."""

    choi: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        object.__setattr__(self, "choi", np.asarray(self.choi))
        d = self.d_in * self.d_out
        if self.choi.shape != (d, d):
            raise ShapeError(
                f"Choi matrix shape {self.choi.shape} does not match "
                f"d_out*d_in = {d}"
            )

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        red = partial_trace(self.choi, [self.d_out, self.d_in], keep=[1])
        return bool(np.allclose(red, np.eye(self.d_in), rtol=0, atol=tol * max(self.d_in, 1)))

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError unless the map is CPTP within tolerance."""
        if not is_hermitian(self.choi, tol=tol):
            raise ValueError("Choi matrix is not Hermitian")
        rep = psd_check(self.choi, tol=tol)
        if not rep.is_psd:
            raise ValueError(
                f"Choi matrix is not positive (min eigenvalue {rep.min_eigenvalue:.3e})"
            )
        if not self.is_trace_preserving(tol):
            raise ValueError("channel is not trace preserving")


def from_kraus(ops, *, require_tp: bool = True) -> Channel:
    """Build a channel from a list of Kraus operators.

    With ``require_tp`` the Kraus sum condition is enforced; disable it
    for trace-decreasing maps such as measurement branches.
    """
    ops = [np.asarray(k, dtype=complex) for k in ops]
    if not ops:
        raise ValueError("from_kraus needs at least one Kraus operator, got an empty list")
    shape = ops[0].shape
    if len(shape) != 2 or any(k.shape != shape for k in ops):
        raise ShapeError(f"Kraus operators must be matrices of one shape, "
                         f"got {[k.shape for k in ops]}")
    d_out, d_in = shape
    if require_tp:
        ksum = sum(k.conj().T @ k for k in ops)
        if not np.allclose(ksum, np.eye(d_in), rtol=0, atol=1e-9):
            raise ValueError("Kraus operators do not sum to the identity")
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return Channel(choi=choi, d_in=d_in, d_out=d_out)


def apply(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Act with the channel on a density matrix."""
    rho = check_shape(rho, channel.d_in, "input state")
    t = channel.choi.reshape(channel.d_out, channel.d_in, channel.d_out, channel.d_in)
    return np.einsum("aibj,ij->ab", t, rho)


def compose(later: Channel, earlier: Channel) -> Channel:
    """The channel running ``earlier`` first and ``later`` second."""
    if later.d_in != earlier.d_out:
        raise ValueError("channel dimensions do not line up for composition")
    s = choi_to_superop(later.choi, later.d_in, later.d_out) @ choi_to_superop(
        earlier.choi, earlier.d_in, earlier.d_out
    )
    choi = superop_to_choi(s, earlier.d_in, later.d_out)
    return Channel(choi=choi, d_in=earlier.d_in, d_out=later.d_out)


def tensor_channels(a: Channel, b: Channel) -> Channel:
    """Parallel composition, a on the slower wire and b on the faster one."""
    big = tensor(a.choi, b.choi)
    dims = [a.d_out, a.d_in, b.d_out, b.d_in]
    choi = permute_wires(big, dims, [0, 2, 1, 3])
    return Channel(choi=choi, d_in=a.d_in * b.d_in, d_out=a.d_out * b.d_out)


def identity_channel(d: int) -> Channel:
    return from_kraus([np.eye(d)])


def unitary_channel(u: np.ndarray) -> Channel:
    return from_kraus([check_unitary(u, "matrix")])


def pauli_channel(probs: dict[str, float]) -> Channel:
    """Mixture of Pauli conjugations, keyed by label strings."""
    labels = list(probs)
    if not labels:
        raise ValueError("pauli_channel needs at least one Pauli label, got an empty mapping")
    n = len(labels[0])
    if any(len(lbl) != n for lbl in labels):
        raise ShapeError("all Pauli labels must have the same length")
    index = [label_index(lbl) for lbl in labels]
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-8 or any(p < -1e-12 for p in probs.values()):
        raise ValueError("probabilities must be nonnegative and sum to one")
    basis = pauli_basis(n)
    ops = [np.sqrt(max(p, 0.0)) * basis[i] for i, p in zip(index, probs.values())]
    return from_kraus(ops, require_tp=False)


def depolarizing_channel(p: float, n_qubits: int = 1) -> Channel:
    """Uniform depolarizing noise of strength p on n qubits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    labels = pauli_labels(n_qubits)
    uniform = p / len(labels)
    probs = {lbl: uniform for lbl in labels}
    probs["I" * n_qubits] += 1.0 - p
    return pauli_channel(probs)


def _tooth_choi(channel: Channel) -> np.ndarray:
    """The Choi matrix on a comb tooth's (in, out) wires, for the Pauli forms and
    :func:`combs.markovian_comb`."""
    if channel.d_in != channel.d_out:
        raise ValueError("Pauli forms need matching input and output dimensions")
    return permute_wires(channel.choi, [channel.d_out, channel.d_in], [1, 0])


def to_ptm(channel: Channel) -> np.ndarray:
    """Pauli transfer matrix of a qubit channel, the one-tooth :func:`tooth_ptm`."""
    return tooth_ptm(_tooth_choi(channel), 1, channel.d_in)


def to_chi(channel: Channel) -> np.ndarray:
    """Process matrix over the Pauli basis, E(rho) = sum chi[a,b] G_a rho G_b.

    The one-tooth :func:`tooth_sandwich`, divided by d**2; for a
    trace-preserving map the diagonal sums to one.
    """
    return tooth_sandwich(_tooth_choi(channel), 1, channel.d_in) / channel.d_in**2


def random_unitary(d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar random unitary via QR with phase fixing."""
    rng = rng or np.random.default_rng()
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_channel(
    d_in: int,
    d_out: int | None = None,
    rng: np.random.Generator | None = None,
) -> Channel:
    """Random CPTP map from a Haar random Stinespring isometry."""
    rng = rng or np.random.default_rng()
    d_out = d_out or d_in
    k = d_in * d_out
    g = rng.standard_normal((d_out * k, d_in)) + 1j * rng.standard_normal((d_out * k, d_in))
    q, _ = np.linalg.qr(g)
    ops = [q[i * d_out : (i + 1) * d_out, :] for i in range(k)]
    return from_kraus(ops)


def random_density_matrix(d: int, rng: np.random.Generator | None = None) -> np.ndarray:
    rng = rng or np.random.default_rng()
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)
