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
