"""Multi-time quantum processes (combs) and their channel forms.

A comb with M teeth over a system of dimension d is a positive operator
on the 2M wires (in_1, out_1, ..., in_M, out_M), all of size d, obeying
the causality hierarchy

    Tr_out_m [ C^(m) ] = C^(m-1) (x) I_in_m ,   C^(0) = 1,

where C^(m) is the reduction to the first m teeth.  The teeth describe
what the process does between the points where an experimenter may act;
inserting channels into the M-1 slots closes the comb into an ordinary
channel from in_1 to out_M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, random_density_matrix, random_unitary
from .linalg import (
    check_state,
    is_hermitian,
    permute_wires,
    psd_check,
    psd_check_factored,
    tensor,
)
from .pauli import _each_axis, qubit_count, tooth_basis


class Comb:
    """A deterministic quantum process with ``teeth`` interventions slots.

    ``choi_op`` lives on wires (in_1, out_1, ..., in_M, out_M), leftmost
    slowest, every wire of dimension ``d_sys``.  ``factor``, when given,
    is a pair ``(a, s)`` with ``a`` of shape (d_sys**(2M), r) and real
    signs ``s`` of length r such that ``choi_op = a diag(s) a^dag``, so
    the operator is Hermitian by construction.  A comb given only its
    factor derives ``choi_op`` on first access and keeps it.
    """

    def __init__(self, choi_op: np.ndarray | None = None, *, teeth: int, d_sys: int,
                 factor: tuple[np.ndarray, np.ndarray] | None = None):
        self.teeth, self.d_sys, self.factor, self._choi_op = teeth, d_sys, factor, choi_op
        d = d_sys ** (2 * teeth)
        if choi_op is None and factor is None:
            raise ValueError("a comb needs its operator or its factor")
        if choi_op is not None and choi_op.shape != (d, d):
            raise ValueError(
                f"comb operator shape {choi_op.shape} does not match "
                f"{teeth} teeth of dimension {d_sys}"
            )
        if factor is not None:
            a, s = factor
            if a.ndim != 2 or a.shape[0] != d or s.shape != (a.shape[1],):
                raise ValueError(
                    f"comb factor shapes {a.shape} and {s.shape} do not match "
                    f"a ({d}, r) factor with r signs"
                )
            if np.iscomplexobj(s):
                raise ValueError("comb factor signs must be real")

    @property
    def choi_op(self) -> np.ndarray:
        if self._choi_op is None:
            a, s = self.factor
            self._choi_op = (a * s) @ a.conj().T
        return self._choi_op

    @property
    def wire_dims(self) -> list[int]:
        return [self.d_sys] * (2 * self.teeth)


@dataclass(frozen=True)
class EnvModel:
    """System-environment dilation of a correlated noise process.

    The environment starts in ``env_init`` and the joint unitary
    ``interactions[m]`` acts on (system, environment) before the m-th
    slot, with the system as the slower wire.
    """

    d_sys: int
    d_env: int
    env_init: np.ndarray
    interactions: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "interactions", tuple(np.asarray(u, dtype=complex) for u in self.interactions))
        object.__setattr__(self, "env_init", np.asarray(self.env_init, dtype=complex))
        if self.env_init.shape != (self.d_env, self.d_env):
            raise ValueError("environment state has the wrong shape")
        check_state(self.env_init, "environment state")
        d = self.d_sys * self.d_env
        for u in self.interactions:
            if u.shape != (d, d):
                raise ValueError("interaction unitary has the wrong shape")
            if not np.allclose(u.conj().T @ u, np.eye(d), atol=1e-9):
                raise ValueError("interaction is not unitary")

    @property
    def teeth(self) -> int:
        return len(self.interactions)


def comb_from_env_model(model: EnvModel, validate: bool = True) -> Comb:
    """Choi operator of the process generated by an environment dilation.

    Each tooth is fed half of an unnormalized maximally entangled pair,
    and ``env_init = sum_j w_j v_j v_j^dag`` is purified into the matrix
    ``a = v sqrt|w|`` on (environment, purifier).  The pair makes out_m
    equal to in_m before the m-th interaction acts on (out_m,
    environment), so each tooth is one batched matmul: the interaction
    viewed as ``[(in_m, out_m, env'), env]`` times the running factor
    viewed as (prefix, env, purifier), which appends the tooth's two
    wires to the prefix.  Tracing out environment and purifier is then
    the matrix product ``a diag(sign w) a^dag``, with ``a`` the factor
    viewed as wires by (environment, purifier); the signs reproduce
    exactly an ``env_init`` whose eigenvalues dip below zero within
    tolerance.  The pair ``(a, sign)`` is the comb's ``factor``; the
    dense operator is only formed if something asks for ``choi_op``.
    """
    d, de, m_teeth = model.d_sys, model.d_env, model.teeth
    w, v = np.linalg.eigh(model.env_init)
    a = v * np.sqrt(np.abs(w))
    for u in model.interactions:
        # u[(out', env'), (out, env)] with out = in_m, as [(in_m, out', env'), env].
        u_t = u.reshape(d, de, d, de).transpose(2, 0, 1, 3).reshape(d * d * de, de)
        a = np.matmul(u_t, a.reshape(-1, de, de))
    comb = Comb(teeth=m_teeth, d_sys=d, factor=(a.reshape(-1, de * de), np.tile(np.sign(w), de)))
    if validate:
        report = validate_comb(comb)
        if not report.passes:
            raise ValueError(f"constructed comb fails validation: {report}")
    return comb


def markovian_comb(tooth_channels) -> Comb:
    """Comb whose teeth are independent channels with no memory.

    No causality validation is performed, so ill-formed tooth maps can
    be used to probe :func:`validate_comb`.
    """
    chois = []
    d = tooth_channels[0].d_in
    for ch in tooth_channels:
        if ch.d_in != d or ch.d_out != d:
            raise ValueError("tooth channels must share the system dimension")
        chois.append(permute_wires(ch.choi, [d, d], [1, 0]))
    return Comb(choi_op=tensor(*chois), teeth=len(chois), d_sys=d)


@dataclass(frozen=True)
class CombValidationReport:
    passes: bool
    psd_ok: bool
    min_eigenvalue: float
    per_level_residuals: tuple[float, ...] = field(default_factory=tuple)

    def __str__(self):
        res = ", ".join(f"{r:.2e}" for r in self.per_level_residuals)
        return (
            f"psd={self.psd_ok} (min eig {self.min_eigenvalue:.3e}), "
            f"causality residuals [{res}], passes={self.passes}"
        )


def _thin_factor(comb: Comb) -> tuple[np.ndarray, np.ndarray] | None:
    """The comb's factor ``(a, s)`` when it has fewer columns r than the
    operator has rows, the case in which working from it is cheaper."""
    if comb.factor is not None and comb.factor[0].shape[1] < comb.d_sys ** (2 * comb.teeth):
        return comb.factor
    return None


def _trace_last(m: np.ndarray, d: int) -> np.ndarray:
    """Partial trace of a square operator over its fastest wire, of size d."""
    n = m.shape[0] // d
    return np.trace(m.reshape(n, d, n, d), axis1=1, axis2=3)


def _level_residual(traced: np.ndarray, lower: np.ndarray, d: int) -> float:
    """``||traced - lower (x) I_d|| / max(||traced||, 1)``, Frobenius norms."""
    n = lower.shape[0]
    diff = traced.reshape(n, d, n, d) - lower[:, None, :, None] * np.eye(d)[None, :, None, :]
    return float(np.linalg.norm(diff) / max(np.linalg.norm(traced), 1.0))


def _factor_residual(a2: np.ndarray, sig: np.ndarray, d: int) -> float:
    """Level residual of a reduction ``T = A diag(sig) A^dag`` given by a thin view.

    ``a2`` is A with its fastest row wire, in_m, moved into the columns,
    so ``L = a2 diag(tile(sig, d)) a2^dag / d`` is the next reduction.
    T - L (x) I lives on the span of ``a2 (x) I``, whose orthonormal basis
    is ``Q (x) I`` for the thin QR ``a2 = Q R``, so its Frobenius norm is
    that of the core ``(Q (x) I)^dag (T - L (x) I) (Q (x) I)``.  In that
    basis T is ``B diag(sig) B^dag`` with B the view of R whose rows take
    in_m back, and L is ``R diag(tile(sig, d)) R^dag / d``.  The core is
    formed entry by entry, never as the difference of two squared norms,
    which would cancel catastrophically.
    """
    r = np.linalg.qr(a2, mode="r")
    b = r.reshape(r.shape[0] * d, -1)
    traced = (b * sig) @ b.conj().T
    return _level_residual(traced, (r * np.tile(sig, d)) @ r.conj().T / d, d)


def validate_comb(comb: Comb, tol: float = 1e-9) -> CombValidationReport:
    """Check positivity and the trace hierarchy of a comb operator.

    The residual at level m measures, relative to the operator norm
    scale, how far Tr_out_m[C^(m)] is from C^(m-1) (x) I.  A comb whose
    factor has fewer columns r than the operator has rows takes its
    spectrum from the factor, and each level from it while the level's
    own factor is thin (:func:`_factor_residual`); the first level that
    is not is formed from the factor.  Every other comb starts from the
    dense operator.  Dense levels trace one wire at a time.  A factor's
    real signs make the comb Hermitian, so only a comb without one is
    checked for it.
    """
    d, m = comb.d_sys, comb.teeth
    herm_ok = comb.factor is not None or is_hermitian(comb.choi_op, tol=tol)
    residuals = []
    if (factor := _thin_factor(comb)) is not None:
        a, s = factor
        rep = psd_check_factored(a, s, tol=tol)
        # Tr_out_m C^(m) is A diag(sig) A^dag with A the view of a whose
        # rows are the first 2m-1 wires; sig starts at the top as tile(s, d).
        sig = np.tile(s, d)
        while d * sig.size < d ** (2 * m - 2):
            residuals.append(_factor_residual(a.reshape(d ** (2 * m - 2), -1), sig, d))
            sig = np.tile(sig, d * d) / d
            m -= 1
        a_m = a.reshape(d ** (2 * m - 1), -1)
        traced = (a_m * sig) @ a_m.conj().T
    else:
        rep = psd_check(comb.choi_op, tol=tol)
        traced = _trace_last(comb.choi_op, d)
    for m in range(m, 1, -1):
        lower = _trace_last(traced, d) / d
        residuals.append(_level_residual(traced, lower, d))
        traced = _trace_last(lower, d)
    # At the bottom the reduction must be exactly the identity, which
    # also pins the overall normalization Tr = d**teeth.
    residuals.append(_level_residual(traced, np.ones((1, 1)), d))
    residuals.reverse()
    passes = bool(herm_ok and rep.is_psd and all(r <= tol for r in residuals))
    return CombValidationReport(
        passes=passes,
        psd_ok=rep.is_psd,
        min_eigenvalue=rep.min_eigenvalue,
        per_level_residuals=tuple(residuals),
    )


def choi_channel(comb: Comb) -> Channel:
    """The comb viewed as one channel from all inputs to all outputs.

    Input register m is in_m and output register m is out_m, register 1
    slowest on both sides.  This map forgets the causal ordering; it is
    the form on which Pauli twirling and quasi-probability decompositions
    operate.
    """
    order = [2 * m + 1 for m in range(comb.teeth)] + [2 * m for m in range(comb.teeth)]
    choi = permute_wires(comb.choi_op, comb.wire_dims, order)
    d_tot = comb.d_sys**comb.teeth
    return Channel(choi=choi, d_in=d_tot, d_out=d_tot)


def slot_channel(comb: Comb) -> Channel:
    """Channel form with the final output leading the output registers.

    Output registers are ordered (out_M, out_1, ..., out_{M-1}), so
    register 1 maps in_1 to the comb's terminal output and register m>1
    maps in_m to the output of the preceding tooth.  Equals the cyclic
    relabeling of :func:`choi_channel`.
    """
    m_teeth = comb.teeth
    outs = [2 * m_teeth - 1] + [2 * m + 1 for m in range(m_teeth - 1)]
    order = outs + [2 * m for m in range(m_teeth)]
    choi = permute_wires(comb.choi_op, comb.wire_dims, order)
    d_tot = comb.d_sys**m_teeth
    return Channel(choi=choi, d_in=d_tot, d_out=d_tot)


def _tooth_sandwich(x: np.ndarray, teeth: int, d_sys: int) -> np.ndarray:
    """``B^dag x B`` for B the Kronecker product of ``teeth`` copies of
    :func:`tooth_basis`, contracted one tooth at a time, rows first."""
    b = tooth_basis(qubit_count(d_sys))
    return _each_axis(_each_axis(x, b.conj(), teeth), b, teeth)


def comb_chi(comb: Comb) -> np.ndarray:
    """Process matrix of the channel form over the multi-qubit Pauli basis.

    chi is ``B^dag J B / d**(2M)`` on the channel form J, whose Pauli
    label joins one label per tooth, tooth 1 slowest.  The comb's rows
    and columns already list each tooth's (in_m, out_m) pair in that
    order, and :func:`tooth_basis` is the vectorized basis with its rows
    in a tooth's (in, out) order, so chi is the sandwich of the operator
    as stored, with no transpose.
    """
    return _tooth_sandwich(comb.choi_op, comb.teeth, comb.d_sys) / comb.d_sys ** (2 * comb.teeth)


def comb_from_chi(chi: np.ndarray, teeth: int, d_sys: int) -> Comb:
    """The comb whose channel form has process matrix ``chi``.

    Inverse of :func:`comb_chi`: ``B chi B^dag``, one tooth at a time,
    lands on the comb's wires as stored.
    """
    b = tooth_basis(qubit_count(d_sys))
    choi_op = _each_axis(_each_axis(chi, b.T, teeth), b.conj().T, teeth)
    return Comb(choi_op=choi_op, teeth=teeth, d_sys=d_sys)


def _comb_ptm(comb: Comb) -> np.ndarray:
    """Pauli transfer matrix of the channel form, R[a, b] = Tr[G_a E(G_b)] / d**M.

    R is ``B^dag S B / d**M`` for the superoperator S, which holds the
    channel form's output row and column on its rows and its input row
    and column on its columns.  :func:`tooth_basis` reads a wire pair as
    (column, row) of the Pauli, so one transpose realigns the comb for
    the sandwich of :func:`comb_chi`, tooth by tooth: each tooth's
    (out column, out row) pair on the rows and its (in column, in row)
    pair on the columns.  Assumes a Hermiticity-preserving map, so R is
    real.
    """
    d, m = comb.d_sys, comb.teeth
    rows = [ax for k in range(m) for ax in (2 * m + 2 * k + 1, 2 * k + 1)]
    cols = [ax for k in range(m) for ax in (2 * m + 2 * k, 2 * k)]
    s = comb.choi_op.reshape((d,) * (4 * m)).transpose(rows + cols).reshape(d ** (2 * m), -1)
    return _tooth_sandwich(s, m, d).real / d**m


def _check_layers(process: Comb | EnvModel, layers) -> list[Channel]:
    layers = list(layers)
    if len(layers) != process.teeth - 1:
        raise ValueError(f"expected {process.teeth - 1} slot channels, got {len(layers)}")
    for ch in layers:
        if ch.d_in != process.d_sys or ch.d_out != process.d_sys:
            raise ValueError("slot channel dimension does not match the process")
    return layers


def _close(comb: Comb, first: np.ndarray | None, slots) -> np.ndarray:
    """Link product of the comb with stacks of plugs, leading plug first.

    ``first`` is a stack (n_0, d, d) of operators on in_1, and ``slots[m]``
    a stack (n_{m+1}, d*d, d*d) of operators on the wire pair
    (out_{m+1}, in_{m+2}), out first, rows then columns.  Closing is
    Tr[C S] with S the transposed plugs, so a plug's row index meets the
    comb's row index.  Returns shape (d, d, n_0, ..., n_{M-1}): the out_M
    row and column, then one axis per stack.  With ``first=None`` in_1
    stays open and its row and column take the place of n_0.

    in_1 is the slowest wire of the rows and of the columns, so the first
    stack contracts into the comb as stored, with no copy of the comb.
    What is left has the next slot's pair as its slowest wires, so each
    slot stack contracts in the same way, by one tensordot on an operator
    already d^2 times smaller than the comb.
    """
    d = comb.d_sys
    x = comb.choi_op.shape[0] // d
    c = comb.choi_op.reshape(d, x, d, x)
    if first is None:
        t = c.transpose(1, 3, 0, 2)
    else:
        t = np.einsum("aybz,nab->yzn", c, first)
    for plug in slots:
        x //= d * d
        t = t.reshape((d * d, x, d * d, x) + t.shape[2:])
        t = np.tensordot(t, plug, axes=([0, 2], [1, 2]))
    return t


def _layer_plugs(comb: Comb, layers) -> list[np.ndarray]:
    """Slot channels as one-plug stacks in :func:`_close` order.

    A Choi matrix lives on (out, in) = (in_{m+2}, out_{m+1}); swapping its
    two wires on the plug side costs d^4 entries.
    """
    d = comb.d_sys
    return [
        layer.choi.reshape(1, d, d, d, d).transpose(0, 2, 1, 4, 3).reshape(1, d * d, d * d)
        for layer in _check_layers(comb, layers)
    ]


def _close_factor(
    a: np.ndarray, s: np.ndarray, d: int, rho: np.ndarray | None, plugs,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`_close` of ``a diag(s) b^dag`` with one plug in every place.

    ``b`` defaults to ``a``.  Closing is linear in the comb, so it runs
    through the two factors alone:

        out[y, z] = sum_cj s_j X[(c, y), j] conj(b[(c, z), j]),
        X = (rho^T (x) P_1^T (x) ... (x) P_{M-1}^T (x) I_out_M) a,

    with the plugs transposed as in :func:`_close`, so any plug works.
    X is built one wire group at a time, leading first: ``rho^T`` on
    in_1, then each slot plug on the next (out_m, in_{m+1}) pair by one
    batched matmul, so every intermediate has as many entries as ``a``,
    and one tensordot with conj(b) sums over c and j.

    With ``rho=None`` in_1 stays open: its row moves next to j among the
    columns of X and conj(b), so it joins out_M in the result, which is
    the Choi matrix on (out_M, in_1).  Otherwise it is the state on out_M.
    """
    r = a.shape[1]
    b = a if b is None else b
    if rho is None:
        x, b = (f.reshape(d, -1, r).transpose(1, 0, 2).reshape(-1, d * r) for f in (a, b))
        lead = 1
    else:
        x, lead = rho.T @ a.reshape(d, -1), d
    for plug in plugs:
        x = np.matmul(plug[0].T, x.reshape(lead, d * d, -1))
        lead *= d * d
    # Axes: the wires closed on both sides, the open ones (out_M, then
    # in_1 when it is open) and the factor's columns.
    shape = (b.shape[0] // d, -1, r)
    return np.tensordot(x.reshape(shape) * s, b.conj().reshape(shape), axes=([0, 2], [0, 2]))


def output_channel(comb: Comb, layers) -> Channel:
    """The in_1 to out_M channel obtained by fixing the slot contents.

    A comb with a thin factor closes through it (:func:`_close_factor`),
    every other comb through the dense operator (:func:`_close`).
    """
    d = comb.d_sys
    plugs = _layer_plugs(comb, layers)
    if (factor := _thin_factor(comb)) is not None:
        choi = _close_factor(*factor, d, None, plugs)
    else:
        # t[a, b, i, j] is the Choi entry for out_M = (a, b), in_1 = (i, j).
        t = _close(comb, None, plugs)
        choi = t.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return Channel(choi=choi, d_in=d, d_out=d)


def apply_comb(comb: Comb, layers, rho: np.ndarray) -> np.ndarray:
    """Close the comb with slot channels and an input state.

    ``layers[m]`` is inserted between out_{m+1} and in_{m+2} (zero
    based), and the returned density matrix lives on the final output
    wire.  The comb closes as in :func:`output_channel`.
    """
    d = comb.d_sys
    if rho.shape != (d, d):
        raise ValueError("input state dimension does not match the comb")
    plugs = _layer_plugs(comb, layers)
    if (factor := _thin_factor(comb)) is not None:
        return _close_factor(*factor, d, rho, plugs)
    return _close(comb, rho[None], plugs).reshape(d, d)


def simulate_env_model(model: EnvModel, layers, rho: np.ndarray) -> np.ndarray:
    """Direct density-matrix simulation of the dilated dynamics.

    This bypasses the comb machinery entirely: the joint system plus
    environment state is evolved unitary by unitary, slot channels act
    on the system wire in between, each as one contraction of its Choi
    matrix with the state's system row and column, and the environment
    is traced out at the end.
    """
    layers = _check_layers(model, layers)
    d, de = model.d_sys, model.d_env
    state = tensor(rho, model.env_init)
    for m, u in enumerate(model.interactions):
        state = u @ state @ u.conj().T
        if m < len(layers):
            choi = layers[m].choi.reshape(d, d, d, d)
            state = np.einsum("aibj,iejf->aebf", choi, state.reshape(d, de, d, de))
            state = state.reshape(d * de, d * de)
    return np.trace(state.reshape(d, de, d, de), axis1=1, axis2=3)


def random_env_model(
    teeth: int,
    n_sys_qubits: int = 1,
    n_env_qubits: int = 1,
    rng: np.random.Generator | None = None,
    interaction_strength: float | None = None,
) -> EnvModel:
    """Random dilation with Haar interactions, or weak ones when a
    strength is given (unitaries exp(-i s H) with H a unit-norm random
    Hermitian)."""
    rng = rng or np.random.default_rng()
    d_sys, d_env = 2**n_sys_qubits, 2**n_env_qubits
    d = d_sys * d_env
    interactions = []
    for _ in range(teeth):
        if interaction_strength is None:
            interactions.append(random_unitary(d, rng))
        else:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            h /= np.linalg.norm(h, 2)
            w, v = np.linalg.eigh(h)
            u = v @ np.diag(np.exp(-1j * interaction_strength * w)) @ v.conj().T
            interactions.append(u)
    return EnvModel(
        d_sys=d_sys,
        d_env=d_env,
        env_init=random_density_matrix(d_env, rng),
        interactions=tuple(interactions),
    )
