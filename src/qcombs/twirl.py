"""Pauli twirling of combs and correlated Pauli noise tables.

Twirling conjugates every tooth by a random Pauli, drawn once per tooth
and applied on both sides of the tooth.  Averaging over all choices
projects the comb's channel form onto the correlated Pauli channels,
which are classical probability tables over per-tooth Pauli labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log2

import numpy as np

from .channels import Channel, apply, from_chi, to_chi
from .combs import Comb, comb_chi, comb_from_chi
from .linalg import tensor
from .pauli import commutation_signs, label_index, offdiag_mass, pauli_basis, pauli_labels

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
        total = sum(clean.values())
        if abs(total - 1.0) > _SUM_SLACK:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", {k: v / total for k, v in clean.items()})

    def prob(self, key: tuple[str, ...]) -> float:
        return self.probs.get(tuple(key), 0.0)


def _qubits(d_sys: int) -> int:
    n = int(log2(d_sys))
    if 2**n != d_sys:
        raise ValueError(f"system dimension {d_sys} is not a power of two")
    return n


def twirl_comb(comb: Comb) -> Comb:
    """Exact twirl: average the comb over per-tooth Pauli frames.

    Tooth m is conjugated by the same Pauli on its input and output
    wire.  A frame P multiplies chi[a, b] of the channel form by
    s(P, a) s(P, b), the signs with which P commutes with G_a and G_b,
    and the mean of that product over all 4**(n*teeth) frames is one on
    the diagonal and zero off it.  So the twirl keeps the diagonal of
    :func:`comb_chi`.
    """
    return comb_from_chi(np.diag(np.diag(comb_chi(comb))), comb.teeth, comb.d_sys)


def sampled_twirl(
    comb: Comb, samples: int, rng: np.random.Generator | None = None
) -> Comb:
    """Monte Carlo estimate of :func:`twirl_comb` from random frames.

    Each draw picks one Pauli per tooth.  Frame f multiplies chi[a, b] by
    signs[f, a] * signs[f, b], so the average over the draws multiplies
    chi by signs^T diag(counts) signs / samples, with counts[f] the
    number of draws of frame f.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = rng or np.random.default_rng()
    n = _qubits(comb.d_sys)
    draws = np.array([rng.integers(0, 4**n, size=comb.teeth) for _ in range(samples)])
    # A frame's label index joins its per-tooth labels in tooth order.
    frames = draws @ (4**n) ** np.arange(comb.teeth - 1, -1, -1)
    counts = np.bincount(frames, minlength=4 ** (n * comb.teeth))
    signs = commutation_signs(n * comb.teeth)
    chi = comb_chi(comb) * (signs.T @ (counts[:, None] * signs) / samples)
    return comb_from_chi(chi, comb.teeth, comb.d_sys)


def twirl_channel(channel: Channel) -> Channel:
    """Full Pauli twirl of a channel on qubits, P E P averaged over P.

    As for :func:`twirl_comb`, this keeps the diagonal of the process matrix.
    """
    return from_chi(np.diag(np.diag(to_chi(channel))))


def extract_pauli_diag(comb: Comb, *, max_offdiag_mass: float = 1e-8) -> PauliDiagTable:
    """Read the correlated Pauli table off a twirled comb.

    Raises ValueError when the comb's process matrix carries more
    off-diagonal weight than ``max_offdiag_mass``, since then the comb
    is not a correlated Pauli process and the diagonal is not the whole
    story.
    """
    chi = comb_chi(comb)
    diag = np.real(np.diag(chi))
    off_mass = offdiag_mass(chi)
    if max_offdiag_mass is not None and off_mass > max_offdiag_mass:
        raise ValueError(
            f"process matrix has off-diagonal mass {off_mass:.3e}; "
            "twirl the comb first"
        )
    n = _qubits(comb.d_sys)
    labels = pauli_labels(n * comb.teeth)
    probs = {}
    for a, lbl in enumerate(labels):
        key = tuple(lbl[m * n : (m + 1) * n] for m in range(comb.teeth))
        probs[key] = float(diag[a])
    return PauliDiagTable(probs=probs, teeth=comb.teeth, n_qubits=n)


def comb_from_pauli_table(table: PauliDiagTable) -> Comb:
    """Comb of the correlated Pauli process described by a table.

    Its channel form has a diagonal process matrix holding the table's
    probabilities, indexed by the per-tooth labels joined in tooth order.
    """
    p = np.zeros(4 ** (table.n_qubits * table.teeth))
    for key, w in table.probs.items():
        p[label_index("".join(key))] = w
    return comb_from_chi(np.diag(p), table.teeth, 2**table.n_qubits)


def env_model_from_pauli_table(table: PauliDiagTable):
    """Dilation of a correlated Pauli process with a pointer environment.

    The environment holds one basis state per table entry, prepared with
    the table weights, and each interaction applies the entry's Pauli to
    the system controlled on the pointer.
    """
    from .combs import EnvModel

    keys = sorted(table.probs)
    d_env = len(keys)
    d_sys = 2**table.n_qubits
    env_init = np.diag([table.probs[k] for k in keys]).astype(complex)
    singles = pauli_basis(table.n_qubits)
    interactions = []
    for m in range(table.teeth):
        u = np.zeros((d_sys * d_env, d_sys * d_env), dtype=complex)
        for k, key in enumerate(keys):
            point = np.zeros((d_env, d_env))
            point[k, k] = 1.0
            u += tensor(singles[label_index(key[m])], point)
        interactions.append(u)
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
    margs = marginals(table)
    probs: dict[tuple[str, ...], float] = {}

    def grow(prefix, weight, m):
        if m == table.teeth:
            probs[tuple(prefix)] = weight
            return
        for lbl, p in margs[m].items():
            grow(prefix + [lbl], weight * p, m + 1)

    grow([], 1.0, 0)
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
