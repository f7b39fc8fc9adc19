"""Dense reference operators that the tests hold the wire-local paths against."""

from functools import lru_cache, reduce
from itertools import product
from math import fsum, isqrt, log2, prod

import numpy as np

from qcombs.channels import Channel, from_kraus
from qcombs.combs import choi_channel
from qcombs.linalg import choi_to_superop, permute_wires, psd_check, tensor
from qcombs.pauli import (_pair_order, commutation_signs, pauli_basis, pauli_matrix, qubit_count,
                          tooth_basis)
from qcombs.pec import ALPHA_CLEAN
from qcombs.twirl import PauliDiagTable


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


def apply_channel_on(rho: np.ndarray, dims, targets, channel: Channel) -> np.ndarray:
    """Act with a channel on selected wires of a joint density matrix.

    The channel must preserve the dimension of the chosen wires.  Its
    superoperator acts on their row and column indices together, and
    wires come back in their original order.
    """
    dims = list(dims)
    targets = list(targets)
    d_t = prod(dims[t] for t in targets)
    if channel.d_in != d_t or channel.d_out != d_t:
        raise ValueError("channel dimension does not match target wires")
    s = choi_to_superop(channel.choi, d_t, d_t)
    return apply_on(rho, dims + dims, targets + [t + len(dims) for t in targets], s)


def completely_depolarizing(d: int) -> Channel:
    """The channel sending every state to the maximally mixed state."""
    ops = [
        np.outer(np.eye(d)[i], np.eye(d)[j]) / np.sqrt(d)
        for i in range(d)
        for j in range(d)
    ]
    return from_kraus(ops)


def is_completely_positive(channel: Channel, tol: float = 1e-9) -> bool:
    return psd_check(channel.choi, tol=tol).is_psd


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * trace_norm(a - b)


def conjugate_on(rho: np.ndarray, dims, targets, u: np.ndarray) -> np.ndarray:
    """``u rho u^dag`` with ``u`` acting on the wires ``targets`` only.

    ``u`` multiplies their row indices and ``u.conj()`` their column indices.
    """
    n = len(dims)
    full = list(dims) * 2
    half = apply_on(rho, full, targets, u)
    return apply_on(half, full, [t + n for t in targets], np.conj(u))


def max_entangled(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_i |ii> on a d*d space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v


def embed(op: np.ndarray, dims, targets) -> np.ndarray:
    """Extend ``op`` acting on the wires ``targets`` by identity elsewhere.

    ``targets`` lists the wires op acts on, in the order op expects them.
    The result carries the wires in their original order.
    """
    dims = list(dims)
    targets = list(targets)
    rest = [i for i in range(len(dims)) if i not in targets]
    big = tensor(op, np.eye(prod(dims[i] for i in rest) if rest else 1))
    cur = targets + rest
    cur_dims = [dims[i] for i in cur]
    perm = [cur.index(i) for i in range(len(dims))]
    return permute_wires(big, cur_dims, perm)


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


def _cswap(d: int) -> np.ndarray:
    """Controlled swap of two d-level registers, on (control, main, ancilla)."""
    swap = permutation_matrix([d, d], [1, 0])
    return tensor(np.diag([1.0, 0.0]), np.eye(d * d)) + tensor(
        np.diag([0.0, 1.0]), swap
    )


def _swap_index(d: int, rest: int) -> tuple[np.ndarray, np.ndarray]:
    """Index that conjugates by :func:`_cswap` as a gather.

    The controlled swap permutes basis states, ``P[i, idx[i]] = 1``, so
    on (control, main, ancilla) followed by ``rest`` further levels
    ``P state P^dag`` is ``state[_swap_index(d, rest)]``.
    """
    perm = np.argmax(_cswap(d), axis=1)
    idx = (perm[:, None] * rest + np.arange(rest)).reshape(-1)
    return np.ix_(idx, idx)


def purified_factor(model) -> np.ndarray:
    """The factor ``a`` of ``comb_from_env_model`` from one purified vector.

    ``max_entangled(d)^(x)M (x) vec(v sqrt|w|)`` carries every tooth's
    pair, the environment and its purifier; each interaction acts on
    (out_m, environment) of it through ``apply_on``, and the vector is
    viewed as rows of the 2M wires by columns of (environment, purifier).
    """
    d, de, m_teeth = model.d_sys, model.d_env, model.teeth
    w, v = np.linalg.eigh(model.env_init)
    k = v * np.sqrt(np.abs(w))
    psi = reduce(np.kron, [max_entangled(d)] * m_teeth + [k.reshape(-1)])
    dims = [d] * (2 * m_teeth) + [de, de]
    for m, u in enumerate(model.interactions):
        psi = apply_on(psi, dims, [2 * m + 1, 2 * m_teeth], u)
    return psi.reshape(d ** (2 * m_teeth), de * de)


def table_factor(table: PauliDiagTable) -> tuple[np.ndarray, np.ndarray]:
    """A factor ``(v, p)`` of a table's comb operator, one column per nonzero
    entry: the Kronecker product over teeth of the entry's Paulis, each as
    a vector on a tooth's (in, out) wires, with its probability as the sign."""
    keys = [key for key, p in table.probs.items() if p]
    cols = [reduce(np.kron, [pauli_matrix(lbl).T.reshape(-1) for lbl in key]) for key in keys]
    return np.array(cols).T, np.array([table.probs[key] for key in keys])


@lru_cache(maxsize=None)
def vec_basis(n: int) -> np.ndarray:
    """Matrix whose columns are the vectorized n-qubit Pauli matrices.

    Satisfies B^dag B = B B^dag = 2**n * identity.
    """
    return np.array([g.reshape(-1) for g in pauli_basis(n)], dtype=complex).T


def _basis_for(m: np.ndarray) -> np.ndarray:
    return vec_basis(qubit_count(isqrt(m.shape[0])))


def chi_from_choi(choi: np.ndarray) -> np.ndarray:
    """Dense ``B^dag choi B / d**2`` over the whole vectorized Pauli basis."""
    b = _basis_for(choi)
    return b.conj().T @ choi @ b / choi.shape[0]


def choi_from_chi(chi: np.ndarray) -> np.ndarray:
    b = _basis_for(chi)
    return b @ chi @ b.conj().T


def ptm_from_superop(s: np.ndarray) -> np.ndarray:
    b = _basis_for(s)
    return (b.conj().T @ s @ b).real / isqrt(s.shape[0])


def superop_from_ptm(r: np.ndarray) -> np.ndarray:
    b = _basis_for(r)
    return b @ r.astype(complex) @ b.conj().T / isqrt(r.shape[0])


def sampled_twirl_op(comb, samples: int, rng: np.random.Generator) -> np.ndarray:
    """The operator of a sampled twirl by the mask formula on dense matrices.

    The frames are drawn as ``twirl.sampled_twirl`` draws them.  The process
    matrix ``B^dag J B / d**(2M)`` is formed from the dense operator J, with
    B the Kronecker product of one ``tooth_basis`` per tooth; it is
    multiplied entrywise by the frame mask ``signs^T diag(counts) signs /
    samples`` and mapped back as ``B chi B^dag``.
    """
    n, m = qubit_count(comb.d_sys), comb.teeth
    draws = rng.integers(0, 4**n, size=(samples, m))
    counts = np.bincount(draws @ (4**n) ** np.arange(m - 1, -1, -1), minlength=4 ** (n * m))
    signs = commutation_signs(n * m)
    b = reduce(np.kron, [tooth_basis(n)] * m)
    chi = b.conj().T @ comb.choi_op @ b / comb.d_sys ** (2 * m)
    return b @ (chi * (signs.T @ (counts[:, None] * signs) / samples)) @ b.conj().T


def solved_alpha(comb, basis) -> np.ndarray:
    """Quasi-probability weights by one ``np.linalg.solve`` per tooth axis.

    The inverse of the dense reference transfer matrix, grouped per tooth,
    is solved against ``basis.ptm_stack.T`` along each axis in turn; entries
    below ``ALPHA_CLEAN`` times the largest are zeroed as in
    ``decompose_inverse``.
    """
    d_tot = comb.d_sys**comb.teeth
    r = ptm_from_superop(choi_to_superop(choi_channel(comb).choi, d_tot, d_tot))
    q, m_teeth = comb.d_sys**2, comb.teeth
    t = np.linalg.inv(r).reshape((q,) * (2 * m_teeth))
    alpha = t.transpose(_pair_order(m_teeth)).reshape((q * q,) * m_teeth)
    for ax in range(m_teeth):
        moved = np.moveaxis(alpha, ax, 0)
        solved = np.linalg.solve(basis.ptm_stack.T, moved.reshape(len(basis), -1))
        alpha = np.moveaxis(solved.reshape(moved.shape), 0, ax)
    peak = np.abs(alpha).max()
    return np.where(np.abs(alpha) < ALPHA_CLEAN * peak, 0.0, alpha)


# Pauli-table arithmetic on the keyed view, entry by entry in key order,
# which the vector forms in qcombs.twirl replaced.


def marginals(table: PauliDiagTable) -> list[dict[str, float]]:
    """Per-tooth label distributions."""
    out = [{} for _ in range(table.teeth)]
    for key, p in table.probs.items():
        for m, lbl in enumerate(key):
            out[m][lbl] = out[m].get(lbl, 0.0) + p
    return out


def product_of_marginals(table: PauliDiagTable) -> PauliDiagTable:
    """The uncorrelated table with the same per-tooth statistics."""
    probs = {
        tuple(lbl for lbl, _ in entries): prod(p for _, p in entries)
        for entries in product(*(m.items() for m in marginals(table)))
    }
    return PauliDiagTable(probs=probs, teeth=table.teeth, n_qubits=table.n_qubits)


def tv_distance(a: PauliDiagTable, b: PauliDiagTable) -> float:
    """Total variation distance between two tables, summed exactly in key order."""
    keys = sorted(set(a.probs) | set(b.probs))
    return 0.5 * fsum(abs(a.prob(k) - b.prob(k)) for k in keys)


def mutual_information(table: PauliDiagTable) -> float:
    """Mutual information in bits between the two teeth of a table."""
    margs = marginals(table)
    total = 0.0
    for (l1, l2), p in table.probs.items():
        if p <= 0.0:
            continue
        total += p * log2(p / (margs[0][l1] * margs[1][l2]))
    return total
