"""Tests for virtual purification of channels and combs."""

import itertools

import numpy as np
import pytest

from qcombs import vcp
from qcombs.channels import identity_channel, pauli_channel, random_channel
from qcombs.channels import random_density_matrix
from qcombs.combs import random_env_model, simulate_env_model
from qcombs.linalg import psd_check
from qcombs.twirl import PauliDiagTable, env_model_from_pauli_table
from qcombs.vcp import VcpResult, _branches, reference_purified, vcp_channel, vcp_comb
from test_closing import _vcp_comb_ref

RHO = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)


def fixture_table():
    return PauliDiagTable(
        probs={("I", "I"): 0.9, ("X", "Z"): 0.1}, teeth=2, n_qubits=1
    )


def run_fixture(which="virtual"):
    model = env_model_from_pauli_table(fixture_table())
    layers = [identity_channel(2)]
    return vcp_comb(model, model, layers, RHO)


def random_table(rng, teeth, entries, n_qubits=1):
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)]
    keys = set()
    while len(keys) < entries:
        keys.add(tuple(rng.choice(labels) for _ in range(teeth)))
    raw = rng.random(entries) + 0.05
    raw /= raw.sum()
    return PauliDiagTable(
        probs={k: float(p) for k, p in zip(sorted(keys), raw)},
        teeth=teeth,
        n_qubits=n_qubits,
    )


# ---------------------------------------------------------------------------
# frozen fixture numbers


def test_fixture_probability_gap():
    res = run_fixture()
    # The gap is the collision probability of the error table.
    assert res.p_gap == pytest.approx(0.9**2 + 0.1**2, abs=1e-12)
    assert res.p_plus == pytest.approx((1 + 0.82) / 2, abs=1e-12)
    assert res.p_plus + res.p_minus == pytest.approx(1.0, abs=1e-12)


def test_fixture_virtual_weights():
    # Squaring the table weights and renormalizing gives the virtual
    # error distribution: 0.81/0.82 and 0.01/0.82.
    table = fixture_table()
    res = run_fixture()
    expected = reference_purified(table, [identity_channel(2)], RHO, which="virtual")
    assert np.linalg.norm(res.virtual_state - expected) < 1e-12
    w_ii = 0.81 / 0.82
    w_xz = 0.01 / 0.82
    assert w_ii == pytest.approx(0.9878048780487805)
    assert w_xz == pytest.approx(0.012195121951219513)
    from qcombs.pauli import pauli_basis

    P = pauli_basis(1)
    x, z = P[1], P[3]
    by_hand = w_ii * RHO + w_xz * (z @ x @ RHO @ x @ z)
    assert np.linalg.norm(res.virtual_state - by_hand) < 1e-12


def test_fixture_physical_state():
    table = fixture_table()
    res = run_fixture()
    expected = reference_purified(table, [identity_channel(2)], RHO, which="physical")
    assert np.linalg.norm(res.physical_state - expected) < 1e-12


# ---------------------------------------------------------------------------
# comb protocol against the closed form


@pytest.mark.parametrize("seed,teeth,entries", [(0, 2, 3), (1, 2, 5), (2, 3, 4)])
def test_comb_protocol_matches_reference(seed, teeth, entries):
    rng = np.random.default_rng(seed)
    table = random_table(rng, teeth, entries)
    model = env_model_from_pauli_table(table)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    res = vcp_comb(model, model, layers, RHO)
    for which, got in (("virtual", res.virtual_state), ("physical", res.physical_state)):
        expected = reference_purified(table, layers, RHO, which=which)
        assert np.linalg.norm(got - expected) < 1e-9


@pytest.mark.parametrize("teeth,entries", [(1, 2), (1, 4), (2, 3), (2, 7), (3, 5), (3, 9)])
def test_pointer_dilation_sweep_matches_reference(teeth, entries):
    """vcp_comb on pointer dilations against the closed form, to 1e-12."""
    rng = np.random.default_rng([teeth, entries])
    table = random_table(rng, teeth, entries)
    model = env_model_from_pauli_table(table)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(2, rng)
    res = vcp_comb(model, model, layers, rho)
    for which, got in (("virtual", res.virtual_state), ("physical", res.physical_state)):
        expected = reference_purified(table, layers, rho, which=which)
        assert np.abs(got - expected).max() < 1e-12


def test_gap_equals_collision_probability():
    rng = np.random.default_rng(5)
    table = random_table(rng, 2, 6)
    model = env_model_from_pauli_table(table)
    res = vcp_comb(model, model, [identity_channel(2)], RHO)
    p2 = sum(p * p for p in table.probs.values())
    assert res.p_gap == pytest.approx(p2, abs=1e-10)


def test_single_tooth_comb_reduces_to_channel():
    table = PauliDiagTable(probs={("I",): 0.8, ("Y",): 0.2}, teeth=1, n_qubits=1)
    model = env_model_from_pauli_table(table)
    res_comb = vcp_comb(model, model, [], RHO)
    noise = pauli_channel({"I": 0.8, "Y": 0.2})
    res_chan = vcp_channel(noise, RHO)
    assert np.linalg.norm(res_comb.virtual_state - res_chan.virtual_state) < 1e-12
    assert res_comb.p_gap == pytest.approx(res_chan.p_gap, abs=1e-12)


# ---------------------------------------------------------------------------
# channel protocol


def test_channel_protocol_squares_pauli_weights():
    rng = np.random.default_rng(9)
    for _ in range(5):
        raw = rng.random(4) + 0.05
        raw /= raw.sum()
        probs = dict(zip("IXYZ", raw))
        noise = pauli_channel(probs)
        res = vcp_channel(noise, RHO)
        p2 = sum(p * p for p in raw)
        table = PauliDiagTable(
            probs={(k,): float(v) for k, v in probs.items()}, teeth=1, n_qubits=1
        )
        expected = reference_purified(table, [], RHO, which="virtual")
        assert np.linalg.norm(res.virtual_state - expected) < 1e-10
        assert res.p_gap == pytest.approx(p2, abs=1e-10)


def test_noiseless_channel_is_transparent():
    res = vcp_channel(identity_channel(2), RHO)
    assert np.linalg.norm(res.virtual_state - RHO) < 1e-12
    assert np.linalg.norm(res.physical_state - RHO) < 1e-12
    assert res.p_gap == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# output sanity


def test_states_are_physical():
    res = run_fixture()
    for state in (res.virtual_state, res.physical_state):
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(state - state.conj().T) < 1e-10
    # The + branch is a genuine state; the virtual one need not be PSD in
    # general but is here since the error weights stay positive.
    assert psd_check(res.physical_state).is_psd
    assert psd_check(res.virtual_state).is_psd


# ---------------------------------------------------------------------------
# argument validation


def test_channel_rejects_mismatched_state():
    with pytest.raises(ValueError, match="dimension"):
        vcp_channel(identity_channel(2), np.eye(4) / 4)


def test_comb_rejects_mismatched_copies():
    t1 = PauliDiagTable(probs={("I", "I"): 1.0}, teeth=2, n_qubits=1)
    t2 = PauliDiagTable(probs={("I",): 1.0}, teeth=1, n_qubits=1)
    with pytest.raises(ValueError, match="shape"):
        vcp_comb(
            env_model_from_pauli_table(t1),
            env_model_from_pauli_table(t2),
            [identity_channel(2)],
            RHO,
        )


def test_comb_rejects_wrong_layer_count():
    model = env_model_from_pauli_table(fixture_table())
    with pytest.raises(ValueError, match="slot"):
        vcp_comb(model, model, [], RHO)


def test_result_dataclass_fields():
    res = run_fixture()
    assert isinstance(res, VcpResult)
    assert res.p_gap == res.p_plus - res.p_minus


# ---------------------------------------------------------------------------
# control-block decomposition against the full control circuit


_COPY_SWEEP = [
    (teeth, n_sys, strength)
    for n_sys, max_teeth in ((1, 4), (2, 3))
    for teeth in range(1, max_teeth + 1)
    for strength in (0.1, 0.6, None)
]


def _copy_pair(teeth, n_sys, strength):
    """Two copies of one process shape with one and two environment qubits.

    ``strength=None`` draws Haar interactions.
    """
    rng = np.random.default_rng([teeth, n_sys, int(100 * (strength or 0))])
    copy1, copy2 = (
        random_env_model(
            teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng, interaction_strength=strength
        )
        for n_env in (1, 2)
    )
    d = 2**n_sys
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    return copy1, copy2, layers, random_density_matrix(d, rng)


@pytest.mark.parametrize("teeth, n_sys, strength", _COPY_SWEEP)
def test_vcp_comb_matches_control_circuit(teeth, n_sys, strength):
    """vcp_comb against the full-state run with the control wire, to 1e-12."""
    copy1, copy2, layers, rho = _copy_pair(teeth, n_sys, strength)
    got = vcp_comb(copy1, copy2, layers, rho)
    want = _vcp_comb_ref(copy1, copy2, layers, rho)
    assert abs(got.p_plus - want.p_plus) < 1e-12
    assert abs(got.p_minus - want.p_minus) < 1e-12
    # The virtual state divides by the gap, so compare it unnormalized.
    assert np.abs(got.p_gap * got.virtual_state - want.p_gap * want.virtual_state).max() < 1e-12
    assert np.abs(got.physical_state - want.physical_state).max() < 1e-12


def test_vcp_comb_diagonal_blocks_are_single_copy_runs(monkeypatch):
    """tau's diagonal blocks are half of each copy's own output on rho."""
    copy1, copy2, layers, rho = _copy_pair(3, 1, None)
    taus = []

    def recording_branches(tau, d):
        taus.append(tau)
        return _branches(tau, d)

    monkeypatch.setattr(vcp, "_branches", recording_branches)
    vcp_comb(copy1, copy2, layers, rho)
    four = taus[0].reshape(2, 2, 2, 2)
    out1 = simulate_env_model(copy1, layers, rho)
    out2 = simulate_env_model(copy2, layers, rho)
    assert np.abs(out1 - out2).max() > 1e-3
    assert np.abs(four[0, :, 0, :] - 0.5 * out1).max() < 1e-14
    assert np.abs(four[1, :, 1, :] - 0.5 * out2).max() < 1e-14
    assert np.array_equal(four[1, :, 0, :], four[0, :, 1, :].conj().T)


@pytest.mark.parametrize("teeth, n_qubits, entries", [(4, 1, 5), (4, 1, 11), (2, 2, 6), (3, 2, 4)])
def test_pointer_dilations_of_larger_tables_match_reference(teeth, n_qubits, entries):
    rng = np.random.default_rng([teeth, n_qubits, entries])
    table = random_table(rng, teeth, entries, n_qubits)
    model = env_model_from_pauli_table(table)
    d = 2**n_qubits
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)
    res = vcp_comb(model, model, layers, rho)
    for which, got in (("virtual", res.virtual_state), ("physical", res.physical_state)):
        expected = reference_purified(table, layers, rho, which=which)
        assert np.abs(got - expected).max() < 1e-12
