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
coherence between them evolves both copies together.  For two combs it
is the closing of their product comb; two dilations evolve it on main and
both environments, with the ancilla summed out tooth by tooth.
:func:`vcp_channel` is the one-tooth case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import Channel
from .combs import (
    Comb,
    EnvModel,
    _close_product,
    _closed,
    _Slots,
    comb_from_env_model,
    markovian_comb,
    simulate_env_model,
)
from .linalg import ShapeError, check_shape
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


def vcp_channel(noise: Channel, rho: np.ndarray) -> VcpResult:
    """Purify a single noise channel acting once on a state.

    The control conditionally swaps main and ancilla before and after
    one application of the noise to each register: :func:`vcp_comb` with
    the one-tooth comb of the noise as both copies.
    """
    comb = markovian_comb([noise])
    return vcp_comb(comb, comb, [], rho)


def vcp_comb(
    copy1: Comb | EnvModel, copy2: Comb | EnvModel, layers, rho: np.ndarray
) -> VcpResult:
    """Purify a correlated noise process given two copies, combs or dilations.

    Both copies keep their own memory for the whole run.  The slot
    channels act on the main register while the ancilla is depolarized,
    and the conditional swaps bracket every tooth.

    The controlled swap is block diagonal in the control, so the state
    ``sum_ab |a><b| (x) sigma_ab`` evolves block by block and no state
    with a control wire is formed.  ``sigma_00`` never swaps and
    ``sigma_11`` swaps on both sides, so, traced down to the main
    register, they are half of copy 1's and half of copy 2's own output
    on ``rho``, run once when both copies are one object.  Only the
    coherence block ``sigma_01`` needs the two copies together, and
    ``sigma_10`` is its adjoint.  Two dilations evolve it on both
    environments (:func:`_coherence`).  Any other pair runs as two combs,
    a dilation taken as its comb.  Traced down to the main register, the
    rows of ``sigma_01`` run copy 1 and its columns copy 2.  On the
    ancilla, maximally mixed when a tooth starts and traced out when it
    ends, the sides are the other way round, so the ancilla joins copy 1's
    column indices to copy 2's row indices: on in_m with weight 1/d, on
    out_m by the trace.  That is the matrix product ``C1 C2 / d**M``,
    closed with the same input and slots on the row and column indices
    left open (:func:`combs._close_product`).  All the closings of one run
    share one conversion of each slot channel.
    """
    if copy1.d_sys != copy2.d_sys or copy1.teeth != copy2.teeth:
        raise ShapeError("the two copies must describe the same process shape")
    d, rho = copy1.d_sys, check_shape(rho, copy1.d_sys, "input state")
    slots = _Slots(copy1, layers)
    if isinstance(copy1, EnvModel) and isinstance(copy2, EnvModel):
        run = partial(simulate_env_model, layers=slots.layers, rho=rho)
        t01 = _coherence(copy1, copy2, slots.layers, rho)
    else:
        copy1, copy2 = (c if isinstance(c, Comb) else comb_from_env_model(c, validate=False)
                        for c in (copy1, copy2))
        run = partial(_closed, slots=slots, rho=rho)
        t01 = _close_product(copy1, copy2, slots, rho)
    t00 = run(copy1)
    t11 = t00 if copy2 is copy1 else run(copy2)
    return _branches(0.5 * np.block([[t00, t01], [t01.conj().T, t11]]), d)


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
    on the middle pair, one matmul each, and in a slot the layer's Choi
    matrix, its input row and column contracted with the main row and
    column as in :func:`combs.simulate_env_model`, by one tensordot.
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
            r = np.tensordot(layers[m].choi.reshape(d, d, d, d),
                             r.reshape(d, e1 * e2 * e1, d, e2), axes=([1, 3], [0, 2]))
            r = r.transpose(0, 2, 1, 3)
    return np.einsum("mefeMf->mM", r.reshape(d, e1, e2, e1, d, e2))


def purified_weights(table: PauliDiagTable, which: str) -> dict[tuple[str, ...], float]:
    """The error table's weights after purification, in the table's key order.

    The virtual state squares every weight and renormalizes; the physical
    (+ branch) state mixes the raw and the squared weights.
    """
    p2 = sum(p * p for p in table.probs.values())
    if which == "virtual":
        return {k: p * p / p2 for k, p in table.probs.items()}
    if which == "physical":
        return {k: (p + p * p) / (1.0 + p2) for k, p in table.probs.items()}
    raise ValueError(f"unknown target {which!r}")


def reference_purified(
    table: PauliDiagTable, layers, rho: np.ndarray, which: str = "virtual"
) -> np.ndarray:
    """Closed-form purified states for correlated Pauli noise: the Pauli
    mixture of :func:`purified_weights`."""
    return _pauli_mixture(table, purified_weights(table, which), layers, rho)
