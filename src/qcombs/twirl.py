"""Pauli twirling of combs and correlated Pauli noise tables.

Twirling conjugates every tooth by a random Pauli, drawn once per tooth
and applied on both sides of the tooth.  Averaging over all choices
projects the comb's channel form onto the correlated Pauli channels,
which are classical probability tables over per-tooth Pauli labels.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import product
from math import fsum, isfinite

import numpy as np

from .combs import Comb, EnvModel, _check_layers, _pauli_diag, comb_chi, comb_from_chi
from .linalg import ShapeError, check_shape
from .pauli import (
    _each_axis,
    commutation_signs,
    label_index,
    offdiag_mass,
    pauli_basis,
    pauli_labels,
    qubit_count,
)

_NEG_CLAMP = 1e-10
_SUM_SLACK = 1e-8


class PauliDiagTable:
    """Joint distribution over per-tooth Pauli labels.

    ``vector`` holds one probability per label index (the per-tooth
    labels joined, first tooth slowest, so index order is sorted key
    order).  ``probs`` is the keyed view, with keys like ("X", "Z"),
    built on first read: a dict table lists its own keys in its order,
    explicit zeros included, and a vector table every label.
    Construction refuses an entry that is not finite, clamps roundoff
    negatives, checks the total and renormalizes it to exactly one.
    """

    def __init__(self, probs: dict | np.ndarray, teeth: int, n_qubits: int):
        self.teeth, self.n_qubits = teeth, n_qubits
        if isinstance(probs, np.ndarray):
            self._listed, values = None, self._check_vector(probs)
        else:
            self._listed, values = self._check_entries(probs)
        total = sum(values.tolist())
        if abs(total - 1.0) > _SUM_SLACK:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if self._listed is None:
            self.vector = values / total
        else:
            self.vector = np.zeros(4 ** (n_qubits * teeth))
            self.vector[self._listed] = values / total
        self.vector.setflags(write=False)

    def _check_vector(self, p: np.ndarray) -> np.ndarray:
        """Refuse non-finite entries and clamp roundoff negatives of a vector
        in index order."""
        if p.shape != (4 ** (self.n_qubits * self.teeth),):
            raise ShapeError(f"a table of {self.teeth} teeth of {self.n_qubits} qubits "
                             f"needs {4 ** (self.n_qubits * self.teeth)} probabilities")
        if (bad := np.flatnonzero(~np.isfinite(p))).size:
            (key,) = _keys_of(bad[:1], self.teeth, self.n_qubits)
            raise ValueError(f"probability of {key} is not finite ({p[bad[0]]})")
        if (bad := np.flatnonzero(p < -_NEG_CLAMP)).size:
            (key,) = _keys_of(bad[:1], self.teeth, self.n_qubits)
            raise ValueError(f"probability of {key} is negative ({p[bad[0]]:.3e})")
        return np.where(p < 0.0, 0.0, p)

    def _check_entries(self, probs: dict) -> tuple[np.ndarray, np.ndarray]:
        """Entry-by-entry check that words the first error in key order;
        returns each key's label index and clamped probability."""
        q, clean = 4**self.n_qubits, {}
        for key, p in probs.items():
            key = tuple(key)
            if len(key) != self.teeth or any(len(lbl) != self.n_qubits for lbl in key):
                raise ShapeError(f"key {key} does not match {self.teeth} teeth "
                                 f"of {self.n_qubits} qubits")
            index = reduce(lambda i, lbl: q * i + label_index(lbl), key, 0)
            if not isfinite(p):
                raise ValueError(f"probability of {key} is not finite ({p})")
            if p < -_NEG_CLAMP:
                raise ValueError(f"probability of {key} is negative ({p:.3e})")
            clean[index] = max(float(p), 0.0)
        return np.array(list(clean), dtype=int), np.array(list(clean.values()))

    @cached_property
    def probs(self) -> dict[tuple[str, ...], float]:
        """The listed keys with their probabilities."""
        if self._listed is None:
            return dict(zip(_table_keys(self.teeth, self.n_qubits), self.vector.tolist()))
        keys = _keys_of(self._listed, self.teeth, self.n_qubits)
        return dict(zip(keys, self.vector[self._listed].tolist()))

    def prob(self, key: tuple[str, ...]) -> float:
        return self.probs.get(tuple(key), 0.0)

    @cached_property
    def _marginal_vectors(self) -> tuple[np.ndarray, ...]:
        """Per-tooth sums over every other tooth, for all 4**n labels, added in
        index order: a contiguous (other teeth, label) copy summed down axis 0.
        Computed on first read, read-only, and shared by every marginal view."""
        q, p = 4**self.n_qubits, self.vector
        vectors = tuple(
            np.ascontiguousarray(p.reshape(q**m, q, -1).transpose(0, 2, 1)).reshape(-1, q).sum(0)
            for m in range(self.teeth)
        )
        for v in vectors:
            v.setflags(write=False)
        return vectors


@lru_cache(maxsize=None)
def _table_keys(teeth: int, n: int) -> tuple[tuple[str, ...], ...]:
    """Table keys in label-index order: one label per tooth, first tooth slowest."""
    return tuple(product(pauli_labels(n), repeat=teeth))


def _digits(index: np.ndarray, teeth: int, n: int) -> np.ndarray:
    """Per-tooth label indices of table label indices, one row each."""
    return index[:, None] // 4 ** (n * np.arange(teeth - 1, -1, -1)) % 4**n


def _keys_of(index: np.ndarray, teeth: int, n: int) -> list[tuple[str, ...]]:
    """The table keys of the given label indices."""
    return list(map(tuple, np.array(pauli_labels(n))[_digits(index, teeth, n)].tolist()))


def pauli_table(comb: Comb) -> PauliDiagTable:
    """The comb's correlated Pauli table, the diagonal of :func:`comb_chi`.

    This is the table of :func:`twirl_comb`'s output, read off the comb
    tooth by tooth with no process matrix (:func:`combs._pauli_diag`), and
    it lists every label.
    """
    n = qubit_count(comb.d_sys)
    return PauliDiagTable(_pauli_diag(comb).real, teeth=comb.teeth, n_qubits=n)


def twirl_comb(comb: Comb) -> Comb:
    """Exact twirl: average the comb over per-tooth Pauli frames.

    Tooth m is conjugated by the same Pauli on its input and output
    wire.  A frame P multiplies chi[a, b] of the channel form by
    s(P, a) s(P, b), the signs with which P commutes with G_a and G_b,
    and the mean of that product over all 4**(n*teeth) frames is one on
    the diagonal and zero off it.  So the twirl keeps the diagonal of
    :func:`comb_chi`, real for a Hermitian comb, and returns the
    Pauli-diagonal comb of its real part.
    """
    return Comb(teeth=comb.teeth, d_sys=comb.d_sys, pauli=_pauli_diag(comb).real)


def sampled_twirl(
    comb: Comb, samples: int, rng: np.random.Generator | None = None
) -> Comb:
    """Monte Carlo estimate of :func:`twirl_comb` from random frames.

    Each draw picks one Pauli per tooth.  Frame f multiplies chi[a, b] by
    signs[f, a] * signs[f, b] = signs[f, a ^ b], since G_a G_b is G_(a^b)
    up to a phase (the XOR of label indices multiplies the Paulis qubit by
    qubit).  So the draws multiply chi by w[a ^ b] / samples, with
    w = signs^T counts contracted one qubit at a time and counts[f] the
    number of draws of frame f.  The result keeps the masked chi
    (:func:`comb_from_chi`), so a dilation, whose chi is read from its
    factor, is twirled with no operator formed.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer of at least 1, got {samples!r}")
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
    ``max_offdiag_mass=None`` nothing is checked, nor for a
    Pauli-diagonal comb, whose off-diagonal mass is zero by construction.
    """
    if max_offdiag_mass is not None and comb.pauli is None:
        off_mass = offdiag_mass(comb_chi(comb))
        if off_mass > max_offdiag_mass:
            raise ValueError(
                f"process matrix has off-diagonal mass {off_mass:.3e}; "
                "twirl the comb first"
            )
    return pauli_table(comb)


def comb_from_pauli_table(table: PauliDiagTable) -> Comb:
    """Comb of a table's correlated Pauli process, holding the table's vector
    alone, full or sparse: its channel form has the diagonal process matrix
    of the probabilities, indexed by the per-tooth labels in tooth order."""
    return Comb(teeth=table.teeth, d_sys=2**table.n_qubits, pauli=table.vector)


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

    Runs the table entry by entry, conjugating by the per-tooth Paulis
    and running the slot channels in between.
    """
    return _pauli_mixture(table, table.probs, layers, rho)


def _pauli_mixture(table: PauliDiagTable, weights, layers, rho: np.ndarray) -> np.ndarray:
    """:func:`apply_correlated_pauli` with ``weights``, in the table's key order, in place of
    its probabilities: all entries run as one stack of states, two batched matmuls per
    tooth and one einsum per slot, and one tensordot sums them with the weights."""
    d = 2**table.n_qubits
    cur = check_shape(rho, d, "input state")
    layers = _check_layers(layers, table.teeth, d)
    listed = np.arange(table.vector.size) if table._listed is None else table._listed
    paulis = np.array(pauli_basis(table.n_qubits))[_digits(listed, table.teeth, table.n_qubits)]
    for m in range(table.teeth):
        cur = paulis[:, m] @ cur @ paulis[:, m]
        if m < len(layers):
            cur = np.einsum("aibj,kij->kab", layers[m].choi.reshape(d, d, d, d), cur)
    return np.tensordot(np.fromiter(weights.values(), float, listed.size), cur, 1)


def _tooth_labels(table: PauliDiagTable) -> list[np.ndarray]:
    """Per tooth, the label indices that the table's listed keys use there."""
    if table._listed is None:
        return [np.arange(4**table.n_qubits)] * table.teeth
    return [np.unique(a) for a in _digits(table._listed, table.teeth, table.n_qubits).T]


def marginals(table: PauliDiagTable) -> list[dict[str, float]]:
    """Per-tooth label distributions, over the labels the table lists there."""
    labels = pauli_labels(table.n_qubits)
    return [
        dict(zip([labels[i] for i in listed], vec[listed].tolist()))
        for listed, vec in zip(_tooth_labels(table), table._marginal_vectors)
    ]


def product_of_marginals(table: PauliDiagTable) -> PauliDiagTable:
    """The uncorrelated table with the same per-tooth statistics.

    Its vector is the outer product of the marginals.  It lists every
    combination of the labels the table lists per tooth.
    """
    teeth, n = table.teeth, table.n_qubits
    vec = reduce(np.multiply.outer, table._marginal_vectors).reshape(-1)
    if table._listed is None:
        return PauliDiagTable(vec, teeth=teeth, n_qubits=n)
    index = reduce(lambda a, b: (a[:, None] * 4**n + b).reshape(-1), _tooth_labels(table))
    probs = dict(zip(_keys_of(index, teeth, n), vec[index].tolist()))
    return PauliDiagTable(probs, teeth=teeth, n_qubits=n)


def tv_distance(a: PauliDiagTable, b: PauliDiagTable) -> float:
    """Total variation distance between two tables of one shape.

    Summed exactly (``fsum``), so the result does not depend on the order
    of the terms.
    """
    if (a.teeth, a.n_qubits) != (b.teeth, b.n_qubits):
        raise ValueError("tables must have the same teeth and qubits")
    return 0.5 * fsum(np.abs(a.vector - b.vector).tolist())


def mutual_information(table: PauliDiagTable) -> float:
    """Mutual information in bits between the two teeth of a table."""
    if table.teeth != 2:
        raise ValueError("mutual information is defined here for two teeth")
    q = 4**table.n_qubits
    joint = table.vector.reshape(q, q)
    m0, m1 = table._marginal_vectors
    live = joint > 0.0
    p = joint[live]
    return sum((p * np.log2(p / np.outer(m0, m1)[live])).tolist())
