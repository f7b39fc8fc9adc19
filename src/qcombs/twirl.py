"""Pauli twirling of combs and correlated Pauli noise tables.

Twirling conjugates every tooth by a random Pauli, drawn once per tooth
and applied on both sides of the tooth.  Averaging over all choices
projects the comb's channel form onto the correlated Pauli channels,
which are classical probability tables over per-tooth Pauli labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import fsum, log2, prod

import numpy as np

from .channels import apply
from .combs import Comb, EnvModel, _thin_factor, comb_chi, comb_from_chi
from .pauli import (
    _each_axis,
    _pair_order,
    commutation_signs,
    label_index,
    offdiag_mass,
    pauli_basis,
    pauli_labels,
    qubit_count,
    tooth_basis,
    tooth_kernel,
)

_NEG_CLAMP = 1e-10
_SUM_SLACK = 1e-8


@dataclass(frozen=True)
class PauliDiagTable:
    """Joint distribution over per-tooth Pauli labels.

    Keys of ``probs`` are tuples like ("X", "Z") with one n-qubit label
    per tooth.  Construction clamps roundoff negatives, checks the total
    and renormalizes it to exactly one.
    """

    probs: dict[tuple[str, ...], float]
    teeth: int
    n_qubits: int

    def __post_init__(self):
        values = list(self.probs.values())
        if (
            _keys_fit(self.probs, self.teeth, self.n_qubits)
            and (low := min(values, default=0.0)) >= -_NEG_CLAMP
        ):
            keys = self.probs.keys()
            clean = list(map(float, values))
            if low < 0.0:
                clean = [max(p, 0.0) for p in clean]
        else:
            keys, clean = self._check_entries()
        total = sum(clean)
        if abs(total - 1.0) > _SUM_SLACK:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", dict(zip(keys, (np.array(clean) / total).tolist())))

    def _check_entries(self) -> tuple[list[tuple[str, ...]], list[float]]:
        """Entry-by-entry check that words the first error in key order."""
        clean = {}
        for key, p in self.probs.items():
            key = tuple(key)
            if len(key) != self.teeth or any(len(lbl) != self.n_qubits for lbl in key):
                raise ValueError(f"key {key} does not match {self.teeth} teeth "
                                 f"of {self.n_qubits} qubits")
            for lbl in key:
                if any(ch not in "IXYZ" for ch in lbl):
                    raise ValueError(f"bad Pauli label {lbl!r}")
            if p < -_NEG_CLAMP:
                raise ValueError(f"probability of {key} is negative ({p:.3e})")
            clean[key] = max(float(p), 0.0)
        return list(clean), list(clean.values())

    def prob(self, key: tuple[str, ...]) -> float:
        return self.probs.get(tuple(key), 0.0)


@lru_cache(maxsize=None)
def _label_set(n: int) -> frozenset[str]:
    return frozenset(pauli_labels(n))


def _keys_fit(probs: dict, teeth: int, n: int) -> bool:
    """Whether every key is a tuple of ``teeth`` n-qubit Pauli labels."""
    return (
        set(map(type, probs)) <= {tuple}
        and set(map(len, probs)) <= {teeth}
        and _label_set(n).issuperset(chain.from_iterable(probs))
    )


@lru_cache(maxsize=None)
def _table_keys(teeth: int, n: int) -> tuple[tuple[str, ...], ...]:
    """Table keys in label-index order: one label per tooth, first tooth slowest."""
    return tuple(product(pauli_labels(n), repeat=teeth))


@lru_cache(maxsize=None)
def _key_index(teeth: int, n: int) -> dict[tuple[str, ...], int]:
    """Position of every table key in :func:`_table_keys` order, its label index."""
    return {key: i for i, key in enumerate(_table_keys(teeth, n))}


def _pauli_diag(comb: Comb, n: int) -> np.ndarray:
    """Diagonal of :func:`comb_chi`, contracted tooth by tooth.

    chi[a, a] = sum_xy conj(B[x, a]) J[x, y] B[y, a] / d**(2M) on the
    channel form J, and B is a Kronecker product over teeth.  One
    transpose puts each tooth's (in, out) row pair and column pair on one
    axis of the comb operator, and each axis contracts with
    :func:`tooth_kernel`.  Complex, as the diagonal of chi is.

    A comb with a thin factor ``J = a diag(s) a^dag`` reads it from ``a``
    alone: with ã the contraction of each tooth's row pair of every
    column of ``a`` with conj(b) (:func:`tooth_basis`), the diagonal is
    the real ``(|ã|^2 @ s) / d**(2M)``.
    """
    q = comb.d_sys**2
    if (factor := _thin_factor(comb)) is not None:
        a, s = factor
        a = _each_axis(a, tooth_basis(n).conj(), comb.teeth)
        return s @ (a.real**2 + a.imag**2) / comb.d_sys ** (2 * comb.teeth)
    t = comb.choi_op.reshape((q,) * (2 * comb.teeth)).transpose(_pair_order(comb.teeth))
    return _each_axis(t, tooth_kernel(n), comb.teeth)[0] / comb.d_sys ** (2 * comb.teeth)


def pauli_table(comb: Comb) -> PauliDiagTable:
    """The comb's correlated Pauli table, the diagonal of :func:`comb_chi`.

    This is the table of :func:`twirl_comb`'s output, read off the comb
    tooth by tooth with no process matrix.
    """
    n = qubit_count(comb.d_sys)
    probs = dict(zip(_table_keys(comb.teeth, n), _pauli_diag(comb, n).real.tolist()))
    return PauliDiagTable(probs=probs, teeth=comb.teeth, n_qubits=n)


def twirl_comb(comb: Comb) -> Comb:
    """Exact twirl: average the comb over per-tooth Pauli frames.

    Tooth m is conjugated by the same Pauli on its input and output
    wire.  A frame P multiplies chi[a, b] of the channel form by
    s(P, a) s(P, b), the signs with which P commutes with G_a and G_b,
    and the mean of that product over all 4**(n*teeth) frames is one on
    the diagonal and zero off it.  So the twirl keeps the diagonal of
    :func:`comb_chi`.  The comb with that diagonal as its process matrix
    is the reverse of :func:`_pauli_diag` (:func:`_comb_from_diag`).
    """
    n = qubit_count(comb.d_sys)
    return _comb_from_diag(_pauli_diag(comb, n), comb.teeth, n)


def _comb_from_diag(p: np.ndarray, teeth: int, n: int) -> Comb:
    """The comb whose channel form has the diagonal process matrix diag(p).

    The reverse of :func:`_pauli_diag`, tooth by tooth with conj(K), so
    no process matrix is formed; the same as ``comb_from_chi(np.diag(p))``
    up to roundoff.
    """
    q = 4**n  # Pauli labels per tooth, and entries of a tooth's wire pair
    t = _each_axis(p, tooth_kernel(n).conj().T, teeth)
    t = t.reshape((q,) * (2 * teeth)).transpose(np.argsort(_pair_order(teeth)))
    return Comb(choi_op=t.reshape(q**teeth, q**teeth), teeth=teeth, d_sys=2**n)


def sampled_twirl(
    comb: Comb, samples: int, rng: np.random.Generator | None = None
) -> Comb:
    """Monte Carlo estimate of :func:`twirl_comb` from random frames.

    Each draw picks one Pauli per tooth.  Frame f multiplies chi[a, b] by
    signs[f, a] * signs[f, b] = signs[f, a ^ b], since G_a G_b is G_(a^b)
    up to a phase (the XOR of label indices multiplies the Paulis qubit by
    qubit).  So the draws multiply chi by w[a ^ b] / samples, with
    w = signs^T counts contracted one qubit at a time and counts[f] the
    number of draws of frame f.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng or np.random.default_rng()
    n = qubit_count(comb.d_sys)
    draws = rng.integers(0, 4**n, size=(samples, comb.teeth))
    # A frame's label index joins its per-tooth labels in tooth order.
    frames = draws @ (4**n) ** np.arange(comb.teeth - 1, -1, -1)
    counts = np.bincount(frames, minlength=4 ** (n * comb.teeth))
    w = _each_axis(counts.astype(float), commutation_signs(1), n * comb.teeth)[0]
    labels = np.arange(counts.size)
    chi = comb_chi(comb) * (w[labels[:, None] ^ labels] / samples)
    return comb_from_chi(chi, comb.teeth, comb.d_sys)


def extract_pauli_diag(comb: Comb, *, max_offdiag_mass: float = 1e-8) -> PauliDiagTable:
    """Read the correlated Pauli table off a twirled comb.

    Raises ValueError when the comb's process matrix carries more
    off-diagonal weight than ``max_offdiag_mass``, since then the comb
    is not a correlated Pauli process and the diagonal is not the whole
    story.  The table is :func:`pauli_table`'s; with
    ``max_offdiag_mass=None`` nothing is checked.
    """
    if max_offdiag_mass is not None:
        off_mass = offdiag_mass(comb_chi(comb))
        if off_mass > max_offdiag_mass:
            raise ValueError(
                f"process matrix has off-diagonal mass {off_mass:.3e}; "
                "twirl the comb first"
            )
    return pauli_table(comb)


def comb_from_pauli_table(table: PauliDiagTable) -> Comb:
    """Comb of the correlated Pauli process described by a table.

    Its channel form has a diagonal process matrix holding the table's
    probabilities, indexed by the per-tooth labels joined in tooth order.
    A table with fewer nonzero entries than the operator has rows also
    carries the factor ``(v, p)``: one column ``v_k`` per entry, the
    Kronecker product over teeth of its Paulis as tooth vectors
    (:func:`tooth_basis`), with the entry's probability as its sign.
    """
    n, teeth = table.n_qubits, table.teeth
    index = _key_index(teeth, n)
    p = np.zeros(4 ** (n * teeth))
    p[[index[key] for key in table.probs]] = list(table.probs.values())
    comb = _comb_from_diag(p, teeth, n)
    (nonzero,) = np.nonzero(p)
    if nonzero.size == p.size:
        return comb
    pick = np.zeros((p.size, nonzero.size))
    pick[nonzero, np.arange(nonzero.size)] = 1.0
    v = _each_axis(pick, tooth_basis(n).T, teeth).T
    return Comb(choi_op=comb.choi_op, teeth=teeth, d_sys=2**n, factor=(v, p[nonzero]))


def env_model_from_pauli_table(table: PauliDiagTable) -> EnvModel:
    """Dilation of a correlated Pauli process with a pointer environment.

    The environment holds one basis state per table entry, prepared with
    the table weights, and each interaction applies the entry's Pauli to
    the system controlled on the pointer: ``sum_k P_k (x) |k><k|``, each
    tooth filled by one indexed assignment of its Paulis.
    """
    keys = sorted(table.probs)
    d_env = len(keys)
    d_sys = 2**table.n_qubits
    env_init = np.diag([table.probs[k] for k in keys]).astype(complex)
    singles = np.array(pauli_basis(table.n_qubits))
    pointer = np.arange(d_env)
    interactions = []
    for m in range(table.teeth):
        u = np.zeros((d_sys, d_env, d_sys, d_env), dtype=complex)
        u[:, pointer, :, pointer] = singles[[label_index(key[m]) for key in keys]]
        interactions.append(u.reshape(d_sys * d_env, d_sys * d_env))
    return EnvModel(
        d_sys=d_sys, d_env=d_env, env_init=env_init, interactions=tuple(interactions)
    )


def apply_correlated_pauli(table: PauliDiagTable, layers, rho: np.ndarray) -> np.ndarray:
    """Reference action of a correlated Pauli process on a state.

    Walks the table entry by entry, conjugating by the per-tooth Paulis
    and running the slot channels in between.
    """
    return _pauli_mixture(table, table.probs, layers, rho)


def _pauli_mixture(table: PauliDiagTable, weights, layers, rho: np.ndarray) -> np.ndarray:
    """:func:`apply_correlated_pauli` with ``weights`` in place of the table's probabilities."""
    layers = list(layers)
    if len(layers) != table.teeth - 1:
        raise ValueError(f"expected {table.teeth - 1} slot channels")
    singles = pauli_basis(table.n_qubits)
    out = np.zeros_like(rho, dtype=complex)
    for key, w in weights.items():
        cur = rho
        for m, lbl in enumerate(key):
            g = singles[label_index(lbl)]
            cur = g @ cur @ g
            if m < len(layers):
                cur = apply(layers[m], cur)
        out += w * cur
    return out


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
    """Total variation distance between two tables.

    Summed exactly in key order, so the result does not depend on the
    iteration order of the tables (and hence not on string hashing).
    """
    keys = sorted(set(a.probs) | set(b.probs))
    return 0.5 * fsum(abs(a.prob(k) - b.prob(k)) for k in keys)


def mutual_information(table: PauliDiagTable) -> float:
    """Mutual information in bits between the two teeth of a table."""
    if table.teeth != 2:
        raise ValueError("mutual information is defined here for two teeth")
    margs = marginals(table)
    total = 0.0
    for (l1, l2), p in table.probs.items():
        if p <= 0.0:
            continue
        total += p * log2(p / (margs[0][l1] * margs[1][l2]))
    return total
