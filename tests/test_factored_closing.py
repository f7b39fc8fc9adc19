"""Closing a dilation comb through its purification factor.

A comb built from a dilation carries ``(a, s)`` with ``choi_op = a
diag(s) a^dag``.  When ``a`` has fewer columns than the operator has
rows, ``apply_comb`` and ``output_channel`` close it through ``a``
alone.  The references are the same comb without its factor, which
closes through the dense operator, and ``simulate_env_model``, which
never forms a comb.
"""

import tracemalloc

import numpy as np
import pytest

from qcombs import combs
from qcombs.channels import Channel, random_channel, random_density_matrix
from qcombs.combs import (
    Comb,
    apply_comb,
    comb_from_env_model,
    output_channel,
    random_env_model,
    simulate_env_model,
)
from qcombs.twirl import PauliDiagTable, apply_correlated_pauli, env_model_from_pauli_table

# (teeth, system qubits, environment qubits, strength; None is Haar).
SWEEP = [
    (m, 1, n_env, strength)
    for m in (1, 2, 3, 4, 5, 6)
    for n_env in (1, 2)
    for strength in (0.1, 0.6, None)
] + [(m, 2, n_env, strength) for m in (1, 2) for n_env in (1, 2) for strength in (0.1, 0.6, None)]


def _dense(comb: Comb) -> Comb:
    """The same comb without its factor, so it closes through ``choi_op``."""
    return Comb(choi_op=comb.choi_op, teeth=comb.teeth, d_sys=comb.d_sys)


def _count_dense_closings(monkeypatch) -> list:
    calls = []
    dense_close = combs._close

    def counting(*args):
        calls.append(args[0])
        return dense_close(*args)

    monkeypatch.setattr(combs, "_close", counting)
    return calls


def _oracle_channel(model, layers) -> np.ndarray:
    """Choi matrix of the closed process from the oracle, input by input.

    Entry ((y, i), (z, j)) is entry (y, z) of the output on |i><j|.
    """
    d = model.d_sys
    choi = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi[:, i, :, j] = simulate_env_model(model, layers, unit)
    return choi.reshape(d * d, d * d)


def _non_cp_layer(rng, d) -> Channel:
    """A slot map whose Choi matrix is neither Hermitian nor symmetric."""
    choi = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return Channel(choi=choi, d_in=d, d_out=d)


def _assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() < tol


@pytest.mark.parametrize("teeth, n_sys, n_env, strength", SWEEP)
def test_factored_closing_matches_dense_and_oracle(monkeypatch, teeth, n_sys, n_env, strength):
    rng = np.random.default_rng([77, teeth, n_sys, n_env, int(100 * (strength or 0))])
    model = random_env_model(
        teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng, interaction_strength=strength
    )
    comb = comb_from_env_model(model, validate=False)
    d = comb.d_sys
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)

    calls = _count_dense_closings(monkeypatch)
    got = apply_comb(comb, layers, rho)
    channel = output_channel(comb, layers).choi
    # The factor is used exactly when it is thinner than the operator.
    thin = model.d_env**2 < d ** (2 * teeth)
    assert calls == ([] if thin else [comb, comb])

    _assert_close(got, apply_comb(_dense(comb), layers, rho))
    _assert_close(got, simulate_env_model(model, layers, rho))
    _assert_close(channel, output_channel(_dense(comb), layers).choi)
    _assert_close(channel, _oracle_channel(model, layers))


@pytest.mark.parametrize("teeth", [2, 3, 4])
def test_factored_closing_takes_any_plug(teeth):
    """A |0><1| input and non-CP slot maps close as they do densely.

    Neither plug equals its transpose, so a plug that meets the comb
    from the wrong side shows.
    """
    rng = np.random.default_rng([78, teeth])
    model = random_env_model(teeth, rng=rng, interaction_strength=0.4)
    comb = comb_from_env_model(model, validate=False)
    layers = [_non_cp_layer(rng, 2)] + [random_channel(2, rng=rng) for _ in range(teeth - 2)]
    coherence = np.array([[0, 1], [0, 0]], dtype=complex)
    got = apply_comb(comb, layers, coherence)
    _assert_close(got, apply_comb(_dense(comb), layers, coherence))
    _assert_close(got, simulate_env_model(model, layers, coherence))
    _assert_close(output_channel(comb, layers).choi, output_channel(_dense(comb), layers).choi)


@pytest.mark.parametrize("teeth", [1, 2, 3])
def test_signed_factor_closes_as_its_operator(teeth):
    """Closing is linear in the comb, so the signs weigh the columns.

    The factor here is random and not a comb at all; only the identity
    ``choi_op = a diag(s) a^dag`` is used.
    """
    rng = np.random.default_rng([79, teeth])
    d = 2
    dim = d ** (2 * teeth)
    a = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    s = np.array([1.0, -1.0, 0.0])
    comb = Comb(teeth=teeth, d_sys=d, factor=(a, s))
    layers = [_non_cp_layer(rng, d) for _ in range(teeth - 1)]
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _assert_close(apply_comb(comb, layers, rho), apply_comb(_dense(comb), layers, rho))
    _assert_close(output_channel(comb, layers).choi, output_channel(_dense(comb), layers).choi)


def test_pointer_dilation_stays_dense(monkeypatch):
    """A table's pointer dilation has d_env**2 >= d**(2M) columns: no gain."""
    keys = [("I", "I"), ("X", "Z"), ("Y", "I"), ("Z", "Y")]
    table = PauliDiagTable(probs=dict(zip(keys, [0.7, 0.1, 0.15, 0.05])), teeth=2, n_qubits=1)
    model = env_model_from_pauli_table(table)
    comb = comb_from_env_model(model, validate=False)
    assert comb.factor[0].shape[1] >= comb.choi_op.shape[0]
    rng = np.random.default_rng(80)
    layers = [random_channel(2, rng=rng)]
    rho = random_density_matrix(2, rng)
    calls = _count_dense_closings(monkeypatch)
    got = apply_comb(comb, layers, rho)
    assert calls == [comb]
    _assert_close(got, simulate_env_model(model, layers, rho))
    _assert_close(got, apply_correlated_pauli(table, layers, rho))


def test_factored_apply_comb_copies_nothing_of_comb_size():
    rng = np.random.default_rng(81)
    model = random_env_model(6, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model, validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(5)]
    rho = random_density_matrix(2, rng)
    apply_comb(comb, layers, rho)
    tracemalloc.start()
    try:
        apply_comb(comb, layers, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < comb.choi_op.nbytes / 16
