"""Dense linear algebra helpers for multi-wire operators.

Everything here works on plain numpy arrays.  Multi-wire operators are
square matrices whose rows and columns are understood as tensor products
of wire indices, leftmost wire slowest (big-endian), matching np.kron.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of matrices (left factor slowest).

    Each factor joins as the outer product that ``np.kron`` forms, so the
    entries are bit for bit those of ``np.kron``, without its per-call
    shape handling.
    """
    out = np.array([[1.0 + 0j]])
    for op in ops:
        op = np.asarray(op)
        out = (out[:, None, :, None] * op[None, :, None, :]).reshape(
            out.shape[0] * op.shape[0], out.shape[1] * op.shape[1]
        )
    return out


def max_entangled(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_i |ii> on a d*d space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v


def partial_trace(m: np.ndarray, dims: list[int] | tuple[int, ...], keep) -> np.ndarray:
    """Trace out all wires except ``keep``.

    Parameters
    ----------
    m : square matrix on the tensor product of wires with sizes ``dims``.
    dims : wire dimensions, leftmost slowest.
    keep : iterable of wire indices to retain, in their original order.

    Returns the reduced matrix on the kept wires, ordered as in ``dims``.
    """
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices out of range for {n} wires")
    t = m.reshape(dims + dims)
    # Trace the discarded wires starting from the rightmost so that the
    # axis numbers of the wires still to process stay valid.
    traced = 0
    for w in reversed(range(n)):
        if w in keep:
            continue
        t = np.trace(t, axis1=w, axis2=w + n - traced)
        traced += 1
    d_keep = prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)


def permute_wires(m: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the wires of a square operator.

    ``perm`` gives the new order of the old wires: wire ``i`` of the result
    is wire ``perm[i]`` of the input.
    """
    dims = list(dims)
    perm = list(perm)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    d = prod(dims)
    return t.reshape(d, d)


def permutation_matrix(dims, perm) -> np.ndarray:
    """Unitary sending |j_0 .. j_{n-1}> to |j_{perm[0]} .. j_{perm[n-1]}>.

    Conjugating by this matrix agrees with :func:`permute_wires`.
    """
    dims = list(dims)
    perm = list(perm)
    n = len(dims)
    d = prod(dims)
    t = np.eye(d).reshape(dims + dims)
    return t.transpose(perm + list(range(n, 2 * n))).reshape(d, d)


def apply_on(m: np.ndarray, dims, axes, op: np.ndarray) -> np.ndarray:
    """``op @ x`` on the listed axes of ``m`` viewed with axis sizes ``dims``.

    ``op`` is a square matrix on those axes in the listed order, first
    slowest, contracted in with one tensordot; the result keeps the
    shape and axis order of ``m``.  A matrix on wires of sizes ``w`` is
    viewed with ``dims = w + w``: row indices, then column indices.
    """
    dims, axes = list(dims), list(axes)
    sub = [dims[a] for a in axes]
    k = len(axes)
    op_t = np.reshape(op, sub + sub)
    out = np.tensordot(op_t, np.reshape(m, dims), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, range(k), axes).reshape(np.shape(m))


def conjugate_on(rho: np.ndarray, dims, targets, u: np.ndarray) -> np.ndarray:
    """``u rho u^dag`` with ``u`` acting on the wires ``targets`` only.

    ``u`` multiplies their row indices and ``u.conj()`` their column indices.
    """
    n = len(dims)
    full = list(dims) * 2
    half = apply_on(rho, full, targets, u)
    return apply_on(half, full, [t + n for t in targets], np.conj(u))


# Entries per row block of is_hermitian's deviation (256 kB of complex).
_HERMITIAN_BLOCK = 16384


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """``||m - m^dag||_F <= tol * max(||m||_F, 1)``.

    The deviation's squared norm is summed over blocks of rows, so no
    temporary comes near the size of ``m`` (16 MB for a five-tooth comb).
    """
    scale = max(np.linalg.norm(m), 1.0)
    rows = max(1, _HERMITIAN_BLOCK // m.shape[-1])
    sq = 0.0
    for r in range(0, m.shape[0], rows):
        diff = m[r : r + rows] - m[:, r : r + rows].conj().T
        sq += np.vdot(diff, diff).real
    return bool(np.sqrt(sq) <= tol * scale)


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive semidefiniteness check."""

    is_psd: bool
    min_eigenvalue: float


def psd_check(m: np.ndarray, tol: float = 1e-9) -> PsdReport:
    """Check positivity of a Hermitian matrix up to a trace-relative slack.

    Eigenvalues are allowed to dip below zero by ``tol`` times the trace
    scale before the matrix is declared non-positive.
    """
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    lo = float(eigs[0])
    scale = max(abs(float(np.trace(m).real)), 1.0)
    return PsdReport(is_psd=lo >= -tol * scale, min_eigenvalue=lo)


def psd_check_factored(a: np.ndarray, s: np.ndarray, tol: float = 1e-9) -> PsdReport:
    """:func:`psd_check` of ``a diag(s) a^dag`` without forming it.

    ``a`` is D x r with r < D, so the matrix has a null space.  With the
    thin QR ``a = Q R`` its nonzero spectrum is that of the r x r matrix
    ``R diag(s) R^dag``, and the minimum eigenvalue is ``min(0, ...)`` of
    that small spectrum.  The slack is the same trace-relative one.
    """
    r = np.linalg.qr(a, mode="r")
    small = (r * s) @ r.conj().T
    lo = min(0.0, float(np.linalg.eigvalsh(0.5 * (small + small.conj().T))[0]))
    scale = max(abs(float(np.trace(small).real)), 1.0)
    return PsdReport(is_psd=lo >= -tol * scale, min_eigenvalue=lo)


def check_state(rho: np.ndarray, what: str, tol: float = 1e-9) -> None:
    """Raise ValueError unless ``rho`` is a density matrix within ``tol``:
    Hermitian, positive up to :func:`psd_check`'s slack, and of unit trace."""
    rep = psd_check(rho, tol=tol)
    if not (is_hermitian(rho, tol=tol) and rep.is_psd):
        raise ValueError(
            f"{what} is not Hermitian and positive "
            f"(min eigenvalue {rep.min_eigenvalue:.3e})"
        )
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"{what} must have unit trace")


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(a - b)


def choi_to_superop(choi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Reshuffle a Choi matrix on (out, in) wires into a superoperator.

    The superoperator S acts on row-major vectorized matrices,
    vec(E(rho)) = S vec(rho).  Leading axes of ``choi`` index a stack.
    """
    lead = choi.shape[:-2]
    t = choi.reshape(lead + (d_out, d_in, d_out, d_in))
    return t.swapaxes(-3, -2).reshape(lead + (d_out * d_out, d_in * d_in))


def superop_to_choi(s: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Inverse reshuffle of :func:`choi_to_superop`."""
    t = s.reshape(d_out, d_out, d_in, d_in)
    return t.transpose(0, 2, 1, 3).reshape(d_out * d_in, d_out * d_in)
