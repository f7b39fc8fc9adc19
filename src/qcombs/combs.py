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

from .channels import Channel, _tooth_choi, random_density_matrix, random_unitary, to_ptm
from .linalg import (
    PsdReport,
    ShapeError,
    _read_only,
    check_shape,
    check_state,
    check_unitary,
    is_hermitian,
    permute_wires,
    psd_check,
    psd_check_factored,
    tensor,
)
from .pauli import (_each_axis, _pair_order, _pauli_coords, commutation_signs, offdiag_mass,
                    pauli_basis, qubit_count, tooth_basis, tooth_kernel, tooth_ptm, tooth_sandwich)


class Comb:
    """A deterministic quantum process with ``teeth`` interventions slots.

    A comb is built from exactly one store, and refuses none or two with one
    ValueError.  ``choi_op`` lives on wires (in_1, out_1, ..., in_M, out_M),
    leftmost slowest, every wire of dimension ``d_sys``.  ``factor`` is a
    pair ``(a, s)``, ``a`` of shape (d_sys**(2M), r) and real signs ``s`` of
    length r, with ``choi_op = a diag(s) a^dag``, Hermitian by construction.
    ``pauli`` holds real weights p, one per Pauli label in label-index
    order, and the process matrix (:func:`comb_chi`) is ``diag(p)``.
    ``chi`` is the process matrix itself.  Every store may be given as an
    array or a nested list, and must be finite; a store of the wrong shape
    raises :class:`linalg.ShapeError`.  Every view a comb keeps is read-only,
    treating the comb as immutable: the copy of ``chi``, and, derived on
    first read, the operator of a comb built from another store, the Pauli
    coordinates of a thin factor's columns (:func:`_thin_coords`) and the
    transfer matrix (:func:`_comb_ptm`).
    """

    def __init__(self, choi_op: np.ndarray | None = None, *, teeth: int, d_sys: int,
                 factor: tuple[np.ndarray, np.ndarray] | None = None,
                 pauli: np.ndarray | None = None, chi: np.ndarray | None = None):
        d = d_sys ** (2 * teeth)
        stores = {"choi_op": choi_op, "factor": factor, "pauli": pauli, "chi": chi}
        if len(given := [k for k, x in stores.items() if x is not None]) != 1:
            raise ValueError("a comb is built from exactly one of choi_op, factor, pauli or "
                             f"chi, got {', '.join(given) or 'none'}")
        if pauli is not None:
            pauli = np.asarray(pauli)
            if pauli.shape != (d,):
                raise ShapeError(f"a comb's Pauli weights must be {d} real numbers, "
                                 f"got shape {pauli.shape}")
            if np.iscomplexobj(pauli):
                raise ValueError(f"a comb's Pauli weights must be {d} real numbers, not complex")
        if choi_op is not None:
            choi_op = np.asarray(choi_op)
            if choi_op.shape != (d, d):
                raise ShapeError(f"comb operator shape {choi_op.shape} does not match "
                                 f"{teeth} teeth of dimension {d_sys}")
        if factor is not None:
            a, s = factor = tuple(map(np.asarray, factor))
            if a.ndim != 2 or a.shape[0] != d or s.shape != (a.shape[1],):
                raise ShapeError(f"comb factor shapes {a.shape} and {s.shape} do not match "
                                 f"a ({d}, r) factor with r signs")
            if np.iscomplexobj(s):
                raise ValueError("comb factor signs must be real")
        if chi is not None:
            chi = _read_only(np.array(chi))
            if chi.shape != (d, d):
                raise ShapeError(f"comb process matrix shape {chi.shape} does not match "
                                 f"{teeth} teeth of dimension {d_sys}")
            qubit_count(d_sys)  # chi is over Pauli labels, so qubits only
        for what, x in (("operator", choi_op), ("Pauli weight", pauli), ("process matrix", chi),
                        *(("factor", x) for x in factor or ())):
            if x is not None and not np.isfinite(x).all():
                raise ValueError(f"comb {what} entries must be finite")
        self.teeth, self.d_sys, self.factor, self.pauli, self.chi = teeth, d_sys, factor, pauli, chi
        self._choi_op, self._coords, self._ptm = choi_op, None, None

    @property
    def choi_op(self) -> np.ndarray:
        if self._choi_op is not None:
            return self._choi_op
        if self.pauli is not None:
            op = _pauli_op(self.pauli, self.teeth, self.d_sys)
        elif self.chi is not None:
            b = tooth_basis(qubit_count(self.d_sys))
            op = _each_axis(_each_axis(self.chi, b.T, self.teeth), b.conj().T, self.teeth)
        else:
            op = (self.factor[0] * self.factor[1]) @ self.factor[0].conj().T
        self._choi_op = _read_only(op)
        return op

    @property
    def trace(self) -> float:
        """Tr C from the comb's own store: ``d**M sum(p)``, or ``|a|^2 @ s``."""
        if self.pauli is not None:
            return float(self.d_sys**self.teeth * self.pauli.sum())
        if self.factor is not None:
            return float(np.sum(np.abs(self.factor[0]) ** 2 @ self.factor[1]))
        return float(np.trace(self.choi_op).real)


def _pauli_op(p: np.ndarray, teeth: int, d_sys: int) -> np.ndarray:
    """The comb operator whose process matrix is ``diag(p)``: conj(K) of
    :func:`tooth_kernel` per tooth, then one transpose onto the comb's
    wires, with no process matrix; ``comb_from_chi(np.diag(p))`` up to
    roundoff."""
    n = qubit_count(d_sys)
    q = 4**n  # Pauli labels per tooth, and entries of a tooth's wire pair
    t = _each_axis(p, tooth_kernel(n).conj().T, teeth)
    t = t.reshape((q,) * (2 * teeth)).transpose(np.argsort(_pair_order(teeth)))
    return t.reshape(q**teeth, q**teeth)


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
        d = self.d_sys * self.d_env
        env_init = np.asarray(self.env_init, dtype=complex)
        if env_init.shape != (self.d_env, self.d_env):
            raise ShapeError(f"environment state shape {env_init.shape} does not match "
                             f"d_env = {self.d_env}")
        interactions = tuple(map(np.asarray, self.interactions))
        for u in interactions:
            if u.shape != (d, d):
                raise ShapeError(f"interaction shape {u.shape} does not match d_sys*d_env = {d}")
        check_state(env_init, "environment state")
        object.__setattr__(self, "env_init", env_init)
        object.__setattr__(self, "interactions",
                           tuple(check_unitary(u, "interaction") for u in interactions))

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
    if not tooth_channels:
        raise ValueError("markovian_comb needs at least one tooth channel, got an empty list")
    dims = sorted({(ch.d_in, ch.d_out) for ch in tooth_channels})
    if len(dims) != 1 or dims[0][0] != dims[0][1]:
        raise ShapeError(
            f"tooth channels must all map one system to itself, got (d_in, d_out) {dims}"
        )
    chois = [_tooth_choi(ch) for ch in tooth_channels]
    return Comb(choi_op=tensor(*chois), teeth=len(chois), d_sys=dims[0][0])


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


def _thin_coords(comb: Comb) -> tuple[np.ndarray, np.ndarray] | None:
    """``(ã, s)`` for a comb with a thin factor ``(a, s)``: ã holds the Pauli
    coordinates of the columns of ``a`` (:func:`pauli._pauli_coords`), one
    row each.  Derived on first read and kept read-only on the comb, so chi,
    the Pauli table and both twirls of one comb contract ``a`` once."""
    if (factor := _thin_factor(comb)) is None:
        return None
    if comb._coords is None:
        comb._coords = _read_only(_pauli_coords(factor[0], comb.teeth, comb.d_sys))
    return comb._coords, factor[1]


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
    scale, how far Tr_out_m[C^(m)] is from C^(m-1) (x) I.  A Pauli comb
    ``B diag(p) B^dag``, with ``B^dag B = d**M``, has spectrum ``d**M p``;
    out_m traces a tooth's Pauli to I on in_m, so every level above the
    first is causal exactly, and the first is ``sum(p) I``.  A comb whose
    factor has fewer columns r than the operator has rows takes its
    spectrum from the factor (:func:`linalg.psd_check_factored`): with
    no negative sign, as for a dilation of a positive environment state,
    its minimum eigenvalue is exactly 0 with nothing decomposed, and
    otherwise it comes from a thin QR.  It takes each level from the
    factor while the level's own factor is thin (:func:`_factor_residual`);
    the first level that is not is formed from the factor.  Every other
    comb starts from the dense operator.  Dense levels trace one wire at a
    time.  A factor's real signs, or real Pauli weights, make the comb
    Hermitian, so only a comb with neither is checked for it.
    """
    d, m = comb.d_sys, comb.teeth
    herm_ok = (comb.factor is not None or comb.pauli is not None
               or is_hermitian(comb.choi_op, tol=tol))
    residuals = []
    if comb.pauli is not None:
        total = float(comb.pauli.sum())
        rep = PsdReport.of(d**m * float(comb.pauli.min()), d**m * total, tol)
        residuals, traced, m = [0.0] * (m - 1), total * np.eye(d), 1
    elif (factor := _thin_factor(comb)) is not None:
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


def _channel_form(comb: Comb, outs: list[int]) -> Channel:
    """The comb as one channel from (in_1, ..., in_M) to the wires ``outs``, in that order."""
    order = outs + [2 * m for m in range(comb.teeth)]
    choi = permute_wires(comb.choi_op, [comb.d_sys] * (2 * comb.teeth), order)
    d_tot = comb.d_sys**comb.teeth
    return Channel(choi=choi, d_in=d_tot, d_out=d_tot)


def choi_channel(comb: Comb) -> Channel:
    """The comb viewed as one channel from all inputs to all outputs.

    Input register m is in_m and output register m is out_m, register 1
    slowest on both sides.  This map forgets the causal ordering; it is
    the form on which Pauli twirling and quasi-probability decompositions
    operate.
    """
    return _channel_form(comb, [2 * m + 1 for m in range(comb.teeth)])


def slot_channel(comb: Comb) -> Channel:
    """Channel form with the final output leading the output registers.

    Output registers are ordered (out_M, out_1, ..., out_{M-1}), so
    register 1 maps in_1 to the comb's terminal output and register m>1
    maps in_m to the output of the preceding tooth.  Equals the cyclic
    relabeling of :func:`choi_channel`.
    """
    m_teeth = comb.teeth
    return _channel_form(comb, [2 * m_teeth - 1] + [2 * m + 1 for m in range(m_teeth - 1)])


def comb_chi(comb: Comb) -> np.ndarray:
    """Process matrix of the channel form over the multi-qubit Pauli basis.

    chi is ``B^dag J B / d**(2M)`` on the channel form J, whose Pauli
    label joins one label per tooth, tooth 1 slowest.  The comb's rows
    and columns already list each tooth's (in_m, out_m) pair in that
    order, and :func:`tooth_basis` is the vectorized basis with its rows
    in a tooth's (in, out) order, so chi is :func:`tooth_sandwich` of the
    operator as stored, with no transpose.

    A comb built from its process matrix returns it as kept, read-only.  A
    comb with a thin factor ``J = a diag(s) a^dag`` reads chi from ``a``,
    forming no operator: with ã the Pauli coordinates of the columns of
    ``a``, which the comb keeps (:func:`_thin_coords`), chi is
    ``(ã^T diag(s) conj(ã)) / d**(2M)``.
    """
    if comb.chi is not None:
        return comb.chi
    scale = comb.d_sys ** (2 * comb.teeth)
    if (coords := _thin_coords(comb)) is not None:
        a, s = coords
        return (a.T * s) @ a.conj() / scale
    return tooth_sandwich(comb.choi_op, comb.teeth, comb.d_sys) / scale


def _offdiag_mass(comb: Comb) -> float:
    """:func:`pauli.offdiag_mass` of :func:`comb_chi`, zero for a Pauli comb with nothing formed."""
    return 0.0 if comb.pauli is not None else offdiag_mass(comb_chi(comb))


def _comb_ptm(comb: Comb) -> np.ndarray:
    """Transfer matrix R[a, b] = Tr[G_a E(G_b)] / d**M of the channel form E,
    kept read-only on the comb once read: ``diag(f)`` for a Pauli comb's
    fidelities f, with no operator formed, and :func:`pauli.tooth_ptm` of the
    operator for every other comb."""
    if comb._ptm is None:
        comb._ptm = _read_only(np.diag(_pauli_fidelities(comb)) if comb.pauli is not None
                               else tooth_ptm(comb.choi_op, comb.teeth, comb.d_sys))
    return comb._ptm


def _pauli_fidelities(comb: Comb) -> np.ndarray:
    """f = S^(x nM) p for a Pauli comb's weights p: a tooth conjugates by G_a
    with probability p[a], which multiplies Pauli coordinate b by the
    commutation sign S[a, b], contracted one qubit at a time."""
    return _each_axis(comb.pauli, commutation_signs(1), qubit_count(comb.d_sys) * comb.teeth)[0]


def comb_from_chi(chi: np.ndarray, teeth: int, d_sys: int) -> Comb:
    """The comb whose channel form has process matrix ``chi``, holding a
    read-only copy of it.

    Inverse of :func:`comb_chi`: its operator ``B chi B^dag``, one tooth at
    a time, lands on the comb's wires as stored, and is formed on first read.
    """
    return Comb(teeth=teeth, d_sys=d_sys, chi=chi)


def _pauli_diag(comb: Comb) -> np.ndarray:
    """Diagonal of :func:`comb_chi`, contracted tooth by tooth.

    chi[a, a] = sum_xy conj(B[x, a]) J[x, y] B[y, a] / d**(2M) on the
    channel form J, and B is a Kronecker product over teeth.  One
    transpose puts each tooth's (in, out) row pair and column pair on one
    axis of the comb operator, and each axis contracts with
    :func:`tooth_kernel`.  Complex, as the diagonal of chi is.

    A comb with a thin factor ``J = a diag(s) a^dag`` reads it from ``a``
    alone: with ã the Pauli coordinates of the columns of ``a``, which
    the comb keeps (:func:`_thin_coords`), the diagonal is the real
    ``(|ã|^2 @ s) / d**(2M)``.  A Pauli-diagonal comb holds it, and so
    does a comb built from its process matrix.
    """
    n, q = qubit_count(comb.d_sys), comb.d_sys**2
    if comb.pauli is not None:
        return comb.pauli
    if comb.chi is not None:
        return np.diag(comb.chi)
    if (coords := _thin_coords(comb)) is not None:
        a, s = coords
        return s @ (a.real**2 + a.imag**2) / comb.d_sys ** (2 * comb.teeth)
    t = comb.choi_op.reshape((q,) * (2 * comb.teeth)).transpose(_pair_order(comb.teeth))
    return _each_axis(t, tooth_kernel(n), comb.teeth)[0] / comb.d_sys ** (2 * comb.teeth)


def _check_layers(layers, teeth: int, d: int) -> list[Channel]:
    """The slot channels of a ``teeth``-tooth closing on dimension ``d``, checked, as a list."""
    layers = list(layers)
    if len(layers) != teeth - 1:
        raise ShapeError(f"expected {teeth - 1} slot channels, got {len(layers)}")
    for ch in layers:
        if ch.d_in != d or ch.d_out != d:
            raise ShapeError(f"slot channel dimension does not match the process: a slot channel "
                             f"must map the {d}-level system to itself, got d_in={ch.d_in}, "
                             f"d_out={ch.d_out}")
    return layers


def _plug(choi: np.ndarray, d: int) -> np.ndarray:
    """A slot's Choi matrix as its :func:`_close` plug.  The Choi matrix lives on
    (out, in) = (in_{m+2}, out_{m+1}), and the plug on (out_{m+1}, in_{m+2});
    swapping the two wires costs d^4 entries."""
    return choi.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


class _Slots:
    """The slot channels of one closing, checked once, in the forms that
    closing reads, each converted on first use and kept (plain properties:
    a first ``cached_property`` read costs about a microsecond on Python 3.11)."""

    def __init__(self, process: Comb | EnvModel, layers):
        self.layers = _check_layers(layers, process.teeth, process.d_sys)
        self._plug_list = self._ptm_list = None

    @property
    def plugs(self) -> list[np.ndarray]:
        """Plugs (:func:`_plug`) in :func:`_close` order."""
        if self._plug_list is None:
            self._plug_list = [_plug(layer.choi, layer.d_in) for layer in self.layers]
        return self._plug_list

    @property
    def ptms(self) -> list[np.ndarray]:
        """Transfer matrices, the plugs of :func:`_pauli_close`."""
        if self._ptm_list is None:
            self._ptm_list = [to_ptm(layer) for layer in self.layers]
        return self._ptm_list


def _close(comb: Comb, rho: np.ndarray | None, plugs) -> np.ndarray:
    """Link product of a dense comb with ``rho`` on in_1 and ``plugs[m]`` on
    the wire pair (out_{m+1}, in_{m+2}), out first, rows then columns:
    Tr[C S] with S the transposed plugs, so a plug's row index meets the
    comb's.  Returns the out_M row and column, then, with ``rho=None``, those
    of in_1, which stays open.  in_1 is the slowest wire of the rows and of
    the columns, so ``rho`` contracts into the comb as stored, with no copy.
    What is left has the next slot's pair as its slowest wires, so each plug
    contracts in the same way, by one tensordot on an operator d^2 times
    smaller.
    """
    d = comb.d_sys
    x = comb.choi_op.shape[0] // d
    c = comb.choi_op.reshape(d, x, d, x)
    t = c.transpose(1, 3, 0, 2) if rho is None else np.einsum("aybz,ab->yz", c, rho)
    for plug in plugs:
        x //= d * d
        t = t.reshape((d * d, x, d * d, x) + t.shape[2:])
        t = np.tensordot(t, plug, axes=([0, 2], [0, 1]))
    return t


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
        x = np.matmul(plug.T, x.reshape(lead, d * d, -1))
        lead *= d * d
    # Axes: the wires closed on both sides, the open ones (out_M, then
    # in_1 when it is open) and the factor's columns.
    shape = (b.shape[0] // d, -1, r)
    return np.tensordot(x.reshape(shape) * s, b.conj().reshape(shape), axes=([0, 2], [0, 2]))


def _pauli_close(comb: Comb, rho: np.ndarray | None, ptms) -> np.ndarray:
    """Close a Pauli-diagonal comb in Pauli coordinates, forming no operator.

    The teeth act through the fidelities f (:func:`_pauli_fidelities`).  With
    ``L_m = ptms[m - 1]``, the slot channels' transfer matrices
    (:attr:`_Slots.ptms`), and ``r_0[b] = Tr[G_b rho]``,

        r[b_M] = sum f(b_1..b_M) L_{M-1}[b_M, b_{M-1}] ... L_1[b_2, b_1] r_0[b_1],

    summed one tooth at a time: each step contracts b_m with L_m and
    meets b_{m+1} on the same axis of f.  Returns the state
    ``sum_b r[b] G_b / d``.  With ``rho=None`` r_0 is the identity, so
    r is the transfer matrix R of the in_1 to out_M channel, and the
    result is its Choi matrix ``sum_ab R[a, b] G_a (x) conj(G_b) / d``.
    """
    n, d = qubit_count(comb.d_sys), comb.d_sys
    q, g = 4**n, np.array(pauli_basis(n))
    f = _pauli_fidelities(comb)
    first = np.eye(q) if rho is None else np.einsum("bij,ji->b", g, rho)[:, None]
    x = first.T[:, :, None] * f.reshape(q, -1)  # (in_1 column, b_m, b_(m+1)..b_M)
    for ptm in ptms:
        x = np.einsum("ji,cijr->cjr", ptm, x.reshape(len(x), q, q, -1))
    if rho is not None:
        return np.tensordot(x[0, :, 0], g, 1) / d
    return np.einsum("ba,axy,bij->xiyj", x[:, :, 0], g, g.conj()).reshape(d * d, d * d) / d


def _closed(comb: Comb, slots: _Slots, rho: np.ndarray | None) -> np.ndarray:
    """Close the comb with the slot channels and ``rho`` on in_1, from its
    own store: a Pauli-diagonal comb in Pauli coordinates
    (:func:`_pauli_close`), a comb with a thin factor through it
    (:func:`_close_factor`), every other comb through the dense operator
    (:func:`_close`).  Returns the state on out_M, or with ``rho=None``
    the Choi matrix of the in_1 to out_M channel."""
    d = comb.d_sys
    if comb.pauli is not None:
        return _pauli_close(comb, rho, slots.ptms)
    if (factor := _thin_factor(comb)) is not None:
        return _close_factor(*factor, d, rho, slots.plugs)
    if rho is not None:
        return _close(comb, rho, slots.plugs)
    # The Choi entry for out_M = (a, b), in_1 = (i, j) is at [a, b, i, j].
    return _close(comb, None, slots.plugs).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _close_product(c1: Comb, c2: Comb, slots: _Slots, rho: np.ndarray) -> np.ndarray:
    """:func:`_closed` of the product comb ``C1 C2 / d**M`` on ``rho``.

    Two Pauli-diagonal combs have the product ``B diag(p1 p2) B^dag`` for
    the Pauli basis B of the comb's wires, since ``B^dag B = d**M``: the
    Pauli-diagonal comb of the entrywise product ``p1 p2``.  A thin factor
    on either side closes it through factors (:func:`_close_factor`):
    ``C1 a2 / d**M`` against ``a2``, or ``a1`` against ``C2^dag a1 / d**M``,
    the other comb acting from its own store (:func:`_times`).  Only combs
    with neither form the dense product.
    """
    d, scale = c1.d_sys, c1.d_sys**c1.teeth
    if (f2 := _thin_factor(c2)) is not None:
        return _close_factor(_times(c1, f2[0]) / scale, f2[1], d, rho, slots.plugs, b=f2[0])
    if (f1 := _thin_factor(c1)) is not None:
        return _close_factor(*f1, d, rho, slots.plugs, b=_times(c2, f1[0], adjoint=True) / scale)
    if c1.pauli is not None and c2.pauli is not None:
        return _closed(Comb(teeth=c1.teeth, d_sys=d, pauli=c1.pauli * c2.pauli), slots, rho)
    product = Comb(choi_op=c1.choi_op @ c2.choi_op / scale, teeth=c1.teeth, d_sys=d)
    return _closed(product, slots, rho)


def _times(comb: Comb, a: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``C a``, or ``C^dag a``, from the comb's own store: ``B diag(p) B^dag a`` in Pauli
    coordinates or ``f diag(s) f^dag a``, both Hermitian; only a dense comb reads ``adjoint``."""
    if comb.pauli is not None:
        b, m = tooth_basis(qubit_count(comb.d_sys)), comb.teeth
        return _each_axis((_pauli_coords(a, m, comb.d_sys) * comb.pauli).T, b.T, m).T
    if (f := _thin_factor(comb)) is not None:
        return f[0] @ (f[1][:, None] * (f[0].conj().T @ a))
    return (comb.choi_op.conj().T if adjoint else comb.choi_op) @ a


def output_channel(comb: Comb, layers) -> Channel:
    """The in_1 to out_M channel obtained by fixing the slot contents,
    closed from the comb's store (:func:`_closed`)."""
    d = comb.d_sys
    return Channel(choi=_closed(comb, _Slots(comb, layers), None), d_in=d, d_out=d)


def apply_comb(comb: Comb, layers, rho: np.ndarray) -> np.ndarray:
    """Close the comb with slot channels and an input state.

    ``layers[m]`` is inserted between out_{m+1} and in_{m+2} (zero
    based), and the returned density matrix lives on the final output
    wire.  The comb closes as in :func:`output_channel`.
    """
    rho = check_shape(rho, comb.d_sys, "input state")
    return _closed(comb, _Slots(comb, layers), rho)


def simulate_env_model(model: EnvModel, layers, rho: np.ndarray) -> np.ndarray:
    """Direct density-matrix simulation of the dilated dynamics.

    This bypasses the comb machinery entirely: the joint system plus
    environment state is evolved unitary by unitary, slot channels act
    on the system wire in between, each as one contraction of its Choi
    matrix with the state's system row and column, and the environment
    is traced out at the end.
    """
    rho = check_shape(rho, model.d_sys, "input state")
    layers = _check_layers(layers, model.teeth, model.d_sys)
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
