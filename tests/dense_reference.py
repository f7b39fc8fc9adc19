"""Dense reference operators that the tests hold the wire-local paths against."""

from math import prod

import numpy as np

from qcombs.linalg import permute_wires, tensor


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
