"""Virtual purification of noise channels and noise combs.

Two independent copies of the noise run side by side on a main and an
ancilla register while a control qubit, prepared in |+>, conditionally
swaps the registers around every noise segment.  The ancilla starts
maximally mixed and is depolarized in every slot, which wipes out all
cross terms except those where both copies picked the same error.  An X
measurement of the control then gives access to the error-squared
("virtual") state as a difference of outcome branches, at the cost of a
signal shrinking with the purity of the error distribution.

:func:`vcp_comb` simulates that circuit one block of the control qubit
at a time: the two diagonal blocks are single-copy runs, and only the
coherence between them evolves both copies together, on main and both
environments, with the ancilla summed out tooth by tooth.
:func:`vcp_channel` runs the one-tooth circuit as a dense state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, apply_channel_on
from .combs import EnvModel, _check_layers, simulate_env_model
from .linalg import choi_to_superop, partial_trace, permutation_matrix, tensor
from .twirl import PauliDiagTable, _pauli_mixture


@dataclass(frozen=True)
class VcpResult:
    """Outcome of one purification run.

    ``virtual_state`` is the difference of the X-outcome branches over
    their probability gap; ``physical_state`` is the branch conditioned
    on the + outcome.
    """

    virtual_state: np.ndarray
    physical_state: np.ndarray
    p_plus: float
    p_minus: float

    @property
    def p_gap(self) -> float:
        """p_plus - p_minus, the collision probability of the errors."""
        return self.p_plus - self.p_minus


def _cswap(d: int) -> np.ndarray:
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


def _branches(tau: np.ndarray, d: int) -> VcpResult:
    """Split the control-plus-main state into X-measurement branches."""
    four = tau.reshape(2, d, 2, d)
    t00, t01 = four[0, :, 0, :], four[0, :, 1, :]
    t10, t11 = four[1, :, 0, :], four[1, :, 1, :]
    sig_plus = 0.5 * (t00 + t11 + t01 + t10)
    sig_minus = 0.5 * (t00 + t11 - t01 - t10)
    p_plus = float(np.trace(sig_plus).real)
    p_minus = float(np.trace(sig_minus).real)
    gap = p_plus - p_minus
    if abs(gap) < 1e-12:
        raise ValueError("outcome probabilities coincide; no virtual state")
    return VcpResult(
        virtual_state=(sig_plus - sig_minus) / gap,
        physical_state=sig_plus / p_plus,
        p_plus=p_plus,
        p_minus=p_minus,
    )


def vcp_channel(noise: Channel, rho: np.ndarray, copies: int = 2) -> VcpResult:
    """Purify a single noise channel acting once on a state.

    The control conditionally swaps main and ancilla before and after
    one application of the noise to each register.
    """
    if copies != 2:
        raise ValueError("only the two-copy protocol is implemented")
    d = noise.d_in
    if noise.d_out != d:
        raise ValueError("noise must preserve the system dimension")
    if rho.shape != (d, d):
        raise ValueError("state dimension does not match the noise")
    dims = [2, d, d]
    state = tensor(np.full((2, 2), 0.5, dtype=complex), rho, np.eye(d) / d)
    swap = _swap_index(d, 1)
    state = state[swap]
    state = apply_channel_on(state, dims, [1], noise)
    state = apply_channel_on(state, dims, [2], noise)
    state = state[swap]
    tau = partial_trace(state, dims, keep=[0, 1])
    return _branches(tau, d)


def vcp_comb(
    copy1: EnvModel, copy2: EnvModel, layers, rho: np.ndarray
) -> VcpResult:
    """Purify a correlated noise process given two dilated copies.

    Both copies keep their own environment for the whole run.  The slot
    channels act on the main register while the ancilla is depolarized,
    and the conditional swaps bracket every tooth.

    The controlled swap is block diagonal in the control, so the state
    ``sum_ab |a><b| (x) sigma_ab`` evolves block by block and no state
    with a control wire is formed.  ``sigma_00`` never swaps and
    ``sigma_11`` swaps on both sides, so, traced down to the main
    register, they are half of copy 1's and half of copy 2's own output
    on ``rho`` (:func:`simulate_env_model`).  Only the coherence block
    ``sigma_01`` needs the two copies together (:func:`_coherence`), and
    ``sigma_10`` is its adjoint.
    """
    if copy1.d_sys != copy2.d_sys or copy1.teeth != copy2.teeth:
        raise ValueError("the two copies must describe the same process shape")
    d = copy1.d_sys
    if rho.shape != (d, d):
        raise ValueError("state dimension does not match the process")
    layers = _check_layers(copy1, layers)
    t01 = _coherence(copy1, copy2, layers, rho)
    tau = 0.5 * np.block(
        [
            [simulate_env_model(copy1, layers, rho), t01],
            [t01.conj().T, simulate_env_model(copy2, layers, rho)],
        ]
    )
    return _branches(tau, d)


def _coherence(copy1: EnvModel, copy2: EnvModel, layers, rho: np.ndarray) -> np.ndarray:
    """The coherence block ``2 sigma_01`` of :func:`vcp_comb`, traced down
    to the main register.

    ``sigma_01`` takes every controlled swap ``S`` on its columns only.
    Kept as ``t S^f``, each swap just flips ``f``, and ``f`` decides which
    wires the column side of the next step acts on.  The run makes 2M
    swaps, so ``f`` is 1 at every interaction and 0 at every slot and at
    the end: ``t`` evolves by ``u1`` on (main, env1) and ``u2`` on
    (ancilla, env2) of its rows, by ``u1`` on (ancilla, env1) and ``u2``
    on (main, env2) of its columns, and by the slot channels as usual.

    The ancilla is maximally mixed when each tooth starts and is traced
    out when the tooth ends, by the depolarizing slot or by the final
    trace, so it needs no wire.  Summing its row level ``x`` and column
    level ``y`` leaves of the two interactions it meets one operator on
    (env2 row, env1 column),
    ``k = (1/d) sum_xy u2[x, y] (x) conj(u1[x, y])``, with ``u[x, y]`` the
    environment block of ``u`` between system levels ``x`` and ``y``.
    What evolves is ``r`` with rows (main, env1, env2) and columns (env1,
    main, env2), d*d_env1*d_env2 levels each: per tooth ``u1`` on the
    leading row pair, ``conj(u2)`` on the trailing column pair and ``k``
    on the middle pair, one matmul each, and in a slot the layer on the
    main row and column.
    """
    d, e1, e2 = copy1.d_sys, copy1.d_env, copy2.d_env
    r = np.einsum("mM,eE,fF->mefEMF", rho, copy1.env_init, copy2.env_init)
    for m, (u1, u2) in enumerate(zip(copy1.interactions, copy2.interactions)):
        k = np.einsum(
            "xfyg,xEyH->fEgH", u2.reshape(d, e2, d, e2), u1.conj().reshape(d, e1, d, e1)
        ).reshape(e2 * e1, e2 * e1) / d
        r = (u1 @ r.reshape(d * e1, -1)).reshape(-1, d * e2) @ u2.conj().T
        r = np.matmul(k, r.reshape(d * e1, e2 * e1, d * e2))
        if m < len(layers):
            s = choi_to_superop(layers[m].choi, d, d).reshape(d, d, d, d)
            r = np.tensordot(s, r.reshape(d, e1 * e2 * e1, d, e2), axes=([2, 3], [0, 2]))
            r = r.transpose(0, 2, 1, 3)
    return np.einsum("mefeMf->mM", r.reshape(d, e1, e2, e1, d, e2))


def reference_purified(
    table: PauliDiagTable, layers, rho: np.ndarray, which: str = "virtual"
) -> np.ndarray:
    """Closed-form purified states for correlated Pauli noise.

    The virtual state squares every weight of the error table and
    renormalizes; the physical (+ branch) state mixes the raw and the
    squared weights.
    """
    p2 = sum(p * p for p in table.probs.values())
    if which == "virtual":
        weights = {k: p * p / p2 for k, p in table.probs.items()}
    elif which == "physical":
        weights = {k: (p + p * p) / (1.0 + p2) for k, p in table.probs.items()}
    else:
        raise ValueError(f"unknown target {which!r}")
    return _pauli_mixture(table, weights, layers, rho)
