"""Quasi-probability cancellation of correlated noise.

The noise comb, viewed as one channel from all slot inputs to all slot
outputs, is inverted in the Pauli transfer representation.  The inverse
is expanded over tensor products of a fixed set of implementable
operations, one factor per tooth, giving quasi-probability weights
alpha.  Running the noisy process with the sampled operations inserted
and reweighting by sign recovers noiseless expectation values at a
sampling cost controlled by gamma = sum |alpha|.

Insertion convention: the operation attached to tooth m acts right
after that tooth fires, so it opens slot m, and the operation of the
final tooth is applied to the output state just before measurement.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .channels import (
    Channel,
    from_kraus,
    tensor_channels,
    to_ptm,
    unitary_channel,
)
from .combs import Comb, _check_layers, _close, _plugs
from .linalg import check_shape, choi_to_superop, partial_trace, psd_check, superop_to_choi
from .pauli import _each_axis, _pair_order, pauli_matrix, qubit_count, tooth_ptm

SINGULAR_VALUE_FLOOR = 1e-10
ALPHA_CLEAN = 1e-12


class SingularNoiseError(ValueError):
    """The noise channel cannot be inverted reliably."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BasisOpSet:
    """An indexed family of insertable operations with their names."""

    ops: tuple[Channel, ...]
    names: tuple[str, ...]
    n_qubits: int

    def __post_init__(self):
        if len(self.ops) != len(self.names):
            raise ValueError("need one name per operation")
        d = 2**self.n_qubits
        for op in self.ops:
            if op.d_in != d or op.d_out != d:
                raise ValueError("operation dimension does not match n_qubits")

    @cached_property
    def ptm_stack(self) -> np.ndarray:
        """Rows are the flattened transfer matrices of the operations (read-only)."""
        return _read_only(np.array([to_ptm(op).reshape(-1) for op in self.ops]))

    @cached_property
    def ptm_dual(self) -> np.ndarray:
        """``inv(ptm_stack.T)``: maps a flattened transfer matrix to its
        weights over the operations (read-only)."""
        return _read_only(np.linalg.inv(self.ptm_stack.T))

    @cached_property
    def choi_stack(self) -> np.ndarray:
        """Choi matrices of the operations, stacked (read-only)."""
        return _read_only(np.array([op.choi for op in self.ops]))

    @cached_property
    def superop_stack(self) -> np.ndarray:
        """Superoperators of the operations, stacked (read-only)."""
        d = 2**self.n_qubits
        return _read_only(choi_to_superop(self.choi_stack, d, d))

    def __len__(self):
        return len(self.ops)


def _rotation(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    s = n[0] * pauli_matrix("X") + n[1] * pauli_matrix("Y") + n[2] * pauli_matrix("Z")
    return (np.eye(2) - 1j * s) / np.sqrt(2)


# The named one-qubit states, as density matrices.
_STATES = {
    "zero": np.array([[1, 0], [0, 0]], dtype=complex),
    "one": np.array([[0, 0], [0, 1]], dtype=complex),
    "plus": np.full((2, 2), 0.5, dtype=complex),
    "minus": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    "plus_i": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "minus_i": np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex),
    "mixed": np.eye(2, dtype=complex) / 2,
}


def _reset_channel(rho: np.ndarray) -> Channel:
    """Discard the input and prepare ``rho``: Choi ``rho (x) I`` on (out, in)."""
    return Channel(choi=np.kron(rho, np.eye(2)), d_in=2, d_out=2)


def _projection_channel(rho: np.ndarray) -> Channel:
    """Keep only the component along the pure state ``rho``, its own Kraus operator."""
    return from_kraus([rho], require_tp=False)


@lru_cache(maxsize=None)
def default_basis(n_qubits: int = 1) -> BasisOpSet:
    """The standard sixteen single-qubit operations, tensored for n > 1.

    Ten unitaries (Pauli frame plus quarter turns about the axis and
    face diagonals of the Bloch sphere), three resets and three
    projective selections.  The resets prepare |0>, |+> and |+i>; the
    selections keep |1>, |-> and |-i>.  Mixing state preparations with
    selections is what makes the stacked transfer matrices full rank:
    either family alone leaves the set rank deficient.
    """
    singles = [
        ("id", unitary_channel(np.eye(2))),
        ("x", unitary_channel(pauli_matrix("X"))),
        ("y", unitary_channel(pauli_matrix("Y"))),
        ("z", unitary_channel(pauli_matrix("Z"))),
        ("rx", unitary_channel(_rotation([1, 0, 0]))),
        ("ry", unitary_channel(_rotation([0, 1, 0]))),
        ("rz", unitary_channel(_rotation([0, 0, 1]))),
        ("ryz", unitary_channel(_rotation([0, 1, 1]))),
        ("rzx", unitary_channel(_rotation([1, 0, 1]))),
        ("rxy", unitary_channel(_rotation([1, 1, 0]))),
        ("reset_0", _reset_channel(_STATES["zero"])),
        ("reset_plus", _reset_channel(_STATES["plus"])),
        ("reset_plus_i", _reset_channel(_STATES["plus_i"])),
        ("select_1", _projection_channel(_STATES["one"])),
        ("select_minus", _projection_channel(_STATES["minus"])),
        ("select_minus_i", _projection_channel(_STATES["minus_i"])),
    ]
    # One factor per qubit, the first slowest; a single qubit's ops are the singles themselves.
    combos = list(itertools.product(singles, repeat=n_qubits))
    return BasisOpSet(
        ops=tuple(reduce(tensor_channels, [op for _, op in combo]) for combo in combos),
        names=tuple(",".join(name for name, _ in combo) for combo in combos),
        n_qubits=n_qubits,
    )


@dataclass(frozen=True)
class BasisReport:
    rank: int
    condition_number: float


def verify_basis_completeness(basis: BasisOpSet) -> BasisReport:
    """Check that the operations are physical and span all maps.

    Every operation must be completely positive and trace
    non-increasing, and the stacked transfer matrices must have full
    rank so that arbitrary inverses can be expanded.  Raises ValueError
    when any of that fails.
    """
    d = 2**basis.n_qubits
    for name, op in zip(basis.names, basis.ops):
        if not psd_check(op.choi).is_psd:
            raise ValueError(f"operation {name} is not completely positive")
        red = partial_trace(op.choi, [d, d], keep=[1])
        excess = psd_check(np.eye(d) - red)
        if not excess.is_psd:
            raise ValueError(f"operation {name} increases the trace")
    w = basis.ptm_stack
    svals = np.linalg.svd(w, compute_uv=False)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    if rank < len(basis):
        raise ValueError(
            f"operation set spans only {rank} of {len(basis)} directions"
        )
    return BasisReport(rank=rank, condition_number=float(svals[0] / svals[-1]))


@dataclass(frozen=True)
class QuasiProbDecomposition:
    """Expansion of an inverse noise map over per-tooth operations.

    ``alpha`` has one axis per tooth, each of length len(basis), and
    sums against tensor products of basis operations to the inverse
    transfer matrix.  ``gamma`` is the total quasi-probability weight.
    ``ptm`` is the (read-only) noise transfer matrix that was inverted.
    """

    alpha: np.ndarray
    gamma: float
    residual: float
    ptm: np.ndarray
    basis: BasisOpSet
    teeth: int
    n_qubits: int

    @cached_property
    def ptm_condition_number(self) -> float:
        """Largest over smallest singular value of ``ptm``, computed on first read."""
        svals = np.linalg.svd(self.ptm, compute_uv=False)
        return float(svals[0] / svals[-1])


def _raise_if_singular(r: np.ndarray) -> None:
    """Raise SingularNoiseError when the smallest singular value of ``r``
    is at most SINGULAR_VALUE_FLOOR times the largest, as for a zero matrix."""
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= SINGULAR_VALUE_FLOOR * svals[0]:
        raise SingularNoiseError(
            f"noise transfer matrix is singular (smallest singular value "
            f"{svals[-1]:.3e})"
        )


def _checked_inverse(r: np.ndarray) -> np.ndarray:
    """``inv(r)`` by one solve, with the singular-noise test of
    :func:`_raise_if_singular` where the solve leaves it in doubt.

    Since cond_2(r) <= ||r||_F ||inv(r)||_F, a bound ten times below
    1/SINGULAR_VALUE_FLOOR settles the test without an SVD.  A larger or
    non-finite bound, or a failed solve, runs the SVD test.
    """
    try:
        r_inv = np.linalg.solve(r, np.eye(r.shape[0]))
    except np.linalg.LinAlgError:
        _raise_if_singular(r)
        raise
    # Python floats: an overflowing product reads inf, without a warning.
    bound = float(np.linalg.norm(r)) * float(np.linalg.norm(r_inv))
    if not bound <= 0.1 / SINGULAR_VALUE_FLOOR:
        _raise_if_singular(r)
    return r_inv


def decompose_inverse(comb: Comb, basis: BasisOpSet | None = None) -> QuasiProbDecomposition:
    """Quasi-probability weights cancelling the comb's channel form.

    The comb is read as one channel from all inputs to all outputs.  Its
    transfer matrix comes off the comb's wires by one realignment
    transpose and the per-tooth Pauli sandwich (:func:`pauli.tooth_ptm`),
    is inverted, and the inverse is expanded over tensor products of basis
    operations by one matmul per tooth axis with the basis's cached
    ``ptm_dual``.  Raises SingularNoiseError when the smallest singular
    value of the transfer matrix is at most SINGULAR_VALUE_FLOOR times the
    largest, as for a zero matrix.  The solve decides well-conditioned
    noise through the bound cond_2(R) <= ||R||_F ||R^-1||_F, and the SVD
    decides only the doubtful cases (:func:`_checked_inverse`);
    ``ptm_condition_number`` is computed on first read.
    """
    n = qubit_count(comb.d_sys)
    basis = basis or default_basis(n)
    if basis.n_qubits != n:
        raise ValueError(
            f"basis acts on {basis.n_qubits} qubit(s) but the comb's system has {n}"
        )
    r = _read_only(tooth_ptm(comb.choi_op, comb.teeth, comb.d_sys))
    r_inv = _checked_inverse(r)

    q, m_teeth = 4**n, comb.teeth
    t = r_inv.reshape((q,) * (2 * m_teeth))
    y = t.transpose(_pair_order(m_teeth)).reshape((q * q,) * m_teeth)

    alpha = _each_axis(y, basis.ptm_dual.T, m_teeth).reshape((len(basis),) * m_teeth)
    alpha = np.where(np.abs(alpha) < ALPHA_CLEAN * np.abs(alpha).max(), 0.0, alpha)
    expanded = _each_axis(alpha, basis.ptm_stack, m_teeth).reshape(y.shape)
    residual = float(np.linalg.norm(expanded - y))

    return QuasiProbDecomposition(
        alpha=alpha,
        gamma=float(np.abs(alpha).sum()),
        residual=residual,
        ptm=r,
        basis=basis,
        teeth=m_teeth,
        n_qubits=n,
    )


# Per comb, the (key, table) of its last _term_values call, gone when the comb is.
_TERM_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _term_values(
    comb: Comb,
    decomp: QuasiProbDecomposition,
    layers,
    rho: np.ndarray,
    observable: np.ndarray,
) -> np.ndarray:
    """Expectation value of every insertion pattern, in one contraction.

    A closed comb's value is Tr[C S] with S the tensor product of the
    plugs, which is multilinear in them: the input state on in_1, the
    map (layer after operation) on each slot's wires (out_m, in_{m+1}),
    and the observable seen through the last operation, op^dag(O), on
    out_M.  Stacking each slot's plug over all operations turns the whole
    table into one closing of the comb, leading plug first, and one last
    tensordot, which keeps M=4-5 teeth and two-qubit systems
    (256 operations) cheap.  The inserted operations are the
    decomposition's own basis, read through its cached Choi and
    superoperator stacks.

    Each comb's last table is kept, read-only, in ``_TERM_MEMO``, and
    dies with the comb.  The table depends on
    the basis but not on alpha, so a call with the same basis and slot
    channels (both by identity) and an equal input state and observable
    (by value, compared against copies) returns it after the argument
    checks, for any decomposition over that basis.
    """
    n_qubits = qubit_count(comb.d_sys)
    if (decomp.teeth, decomp.n_qubits) != (comb.teeth, n_qubits):
        raise ValueError(
            f"decomposition is for {decomp.teeth} teeth on {decomp.n_qubits} qubit(s) "
            f"but the comb has {comb.teeth} teeth on {n_qubits} qubit(s)"
        )
    d = comb.d_sys
    layers = _check_layers(layers, comb.teeth, d)
    rho, observable = check_shape(rho, d, "input state"), check_shape(observable, d, "observable")
    key = (decomp.basis, tuple(layers), np.array(rho), np.array(observable))
    if (memo := _TERM_MEMO.get(comb)) is not None and _same_terms(memo[0], key):
        return memo[1]
    # Each slot's stack is the layer's superoperator times those of all
    # operations in one matmul, back to Choi matrices and into the comb's
    # plugs.  op^dag(O) enters transposed ("nij" below), as the effect
    # plug on out_M.
    n = len(decomp.basis)
    chois, superops = decomp.basis.choi_stack, decomp.basis.superop_stack
    slots = [_plugs(superop_to_choi(choi_to_superop(layer.choi, d, d) @ superops, d, d), d)
             for layer in layers]
    values = _close(comb, rho[None], slots)
    heisenberg = np.einsum("ba,naibj->nij", observable, chois.reshape(n, d, d, d, d))
    values = np.tensordot(values, heisenberg, axes=([0, 1], [1, 2]))
    _TERM_MEMO[comb] = key, _read_only(values.reshape((n,) * comb.teeth).real)
    return _TERM_MEMO[comb][1]


def _same_terms(a: tuple, b: tuple) -> bool:
    """Whether two :func:`_term_values` keys name one table: the same basis
    and slot channels, and the same dtype and entries of state and observable."""
    return (a[0] is b[0] and len(a[1]) == len(b[1]) and all(map(operator.is_, a[1], b[1]))
            and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a[2:], b[2:])))


def pec_correct_exact(
    comb: Comb,
    decomp: QuasiProbDecomposition,
    layers,
    rho: np.ndarray,
    observable: np.ndarray,
) -> float:
    """Deterministically reweighted expectation value.

    Sums alpha against the expectation values of every insertion
    pattern; with the decomposition of the comb's inverse this cancels
    the noise exactly, up to the numerical residual of the expansion.
    The table of values is the one :func:`pec_sample` draws from: the
    last one of each comb is kept (:func:`_term_values`), so the exact value
    and a sampled estimate on the same inputs compute it once.
    """
    return float(np.sum(decomp.alpha * _term_values(comb, decomp, layers, rho, observable)))


def pec_sample(
    comb: Comb,
    decomp: QuasiProbDecomposition,
    layers,
    rho: np.ndarray,
    observable: np.ndarray,
    shots: int,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the corrected expectation value.

    Insertion patterns are drawn with probability |alpha|/gamma and the
    measured values are reweighted by gamma and the pattern sign.
    Returns the estimate and its standard error.  The pattern values
    come from the table :func:`pec_correct_exact` reads, kept per comb
    (:func:`_term_values`), so on the same inputs it is computed
    once for both.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 2:
        raise ValueError(f"shots must be an integer of at least 2, got {shots!r}")
    rng = rng or np.random.default_rng()
    values = _term_values(comb, decomp, layers, rho, observable)
    flat_alpha = decomp.alpha.reshape(-1)
    flat_values = values.reshape(-1)
    probs = np.abs(flat_alpha)
    total = probs.sum()
    probs = probs / total
    counts = rng.multinomial(shots, probs)
    shot_values = decomp.gamma * np.sign(flat_alpha) * flat_values
    estimate = float(np.dot(counts, shot_values) / shots)
    second = float(np.dot(counts, shot_values**2) / shots)
    var = max(second - estimate**2, 0.0) * shots / (shots - 1)
    return estimate, float(np.sqrt(var / shots))
