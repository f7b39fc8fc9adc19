"""Closing combs and swapping purification registers, against dense references.

``_plug_tensor`` transposes the whole comb operator into plug-grouped
axes and contracts one plug at a time; the VCP references conjugate by
the controlled swap as a dense operator.  Both are independent of the
library's leading-plug-first closing and index-gather swap.
"""

import tracemalloc

import numpy as np
import pytest

from dense_reference import (
    _cswap,
    _swap_index,
    apply_channel_on,
    completely_depolarizing,
    conjugate_on,
)
from qcombs.channels import (
    Channel,
    apply,
    compose,
    random_channel,
    random_density_matrix,
)
from qcombs.combs import (
    Comb,
    apply_comb,
    comb_from_env_model,
    output_channel,
    random_env_model,
    simulate_env_model,
)
from qcombs.linalg import partial_trace, tensor
from qcombs.pec import QuasiProbDecomposition, _term_values, default_basis, pec_correct_exact
from qcombs.vcp import _branches, vcp_channel, vcp_comb


def _plug_tensor(comb: Comb) -> np.ndarray:
    """The comb operator with its indices grouped plug by plug.

    Axes: (in_1 row, in_1 col), then per slot (in_{m+1} row, out_m row,
    in_{m+1} col, out_m col), then (out_M row, out_M col), each group
    flattened.
    """
    d, m_teeth = comb.d_sys, comb.teeth
    rows, cols = list(range(2 * m_teeth)), list(range(2 * m_teeth, 4 * m_teeth))
    order = [rows[0], cols[0]]
    for m in range(1, m_teeth):
        order += [rows[2 * m], rows[2 * m - 1], cols[2 * m], cols[2 * m - 1]]
    order += [rows[-1], cols[-1]]
    t = comb.choi_op.reshape((d,) * (4 * m_teeth)).transpose(order)
    return t.reshape((d * d,) + (d**4,) * (m_teeth - 1) + (d * d,))


def _output_channel_ref(comb: Comb, layers) -> Channel:
    d = comb.d_sys
    t = _plug_tensor(comb)
    for layer in layers:
        t = np.tensordot(t, layer.choi.reshape(-1), axes=(1, 0))
    choi = t.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return Channel(choi=choi, d_in=d, d_out=d)


def _term_values_ref(comb: Comb, ops, layers, rho, observable) -> np.ndarray:
    d = comb.d_sys
    values = np.tensordot(rho.reshape(-1), _plug_tensor(comb), axes=(0, 0))
    for layer in layers:
        slot = np.array([compose(layer, op).choi.reshape(-1) for op in ops])
        values = np.tensordot(values, slot, axes=(0, 1))
    chois = np.array([op.choi.reshape(d, d, d, d) for op in ops])
    heisenberg = np.einsum("ba,naibj->nij", observable, chois).reshape(len(ops), -1)
    return np.tensordot(values, heisenberg, axes=(0, 1)).real


def _random_observable(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


_SWEEP = [
    (teeth, 1, n_env, strength)
    for teeth in (1, 2, 3, 4, 5)
    for n_env in (1, 2)
    for strength in (0.1, 0.6, None)
] + [(teeth, 2, 1, strength) for teeth in (1, 2) for strength in (0.1, 0.6, None)]


@pytest.mark.parametrize("teeth, n_sys, n_env, strength", _SWEEP)
def test_closing_matches_plug_tensor_reference(teeth, n_sys, n_env, strength):
    """apply_comb, output_channel and the PEC table against the plug tensor.

    ``strength=None`` draws Haar interactions.  The PEC weights are random
    rather than a decomposed inverse: pec_correct_exact is linear in
    them, and the table it sums is compared entry by entry as well.
    """
    rng = np.random.default_rng([teeth, n_sys, n_env, int(100 * (strength or 0))])
    model = random_env_model(
        teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng, interaction_strength=strength
    )
    comb = comb_from_env_model(model, validate=False)
    d = comb.d_sys
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)

    ref_channel = _output_channel_ref(comb, layers)
    got = apply_comb(comb, layers, rho)
    assert np.abs(got - apply(ref_channel, rho)).max() < 1e-12
    assert np.abs(got - simulate_env_model(model, layers, rho)).max() < 1e-12
    assert np.abs(output_channel(comb, layers).choi - ref_channel.choi).max() < 1e-12

    basis = default_basis(n_sys)
    alpha = rng.standard_normal((len(basis),) * teeth)
    alpha /= np.abs(alpha).sum()
    decomp = QuasiProbDecomposition(
        alpha=alpha, gamma=1.0, residual=0.0, ptm=np.eye(4 ** (n_sys * teeth)),
        basis=basis, teeth=teeth, n_qubits=n_sys,
    )
    obs = _random_observable(rng, d)
    want = _term_values_ref(comb, basis.ops, layers, rho, obs)
    got_values = _term_values(comb, decomp, layers, rho, obs)
    assert got_values.shape == want.shape
    assert np.abs(got_values - want).max() < 1e-12
    assert abs(pec_correct_exact(comb, decomp, layers, rho, obs) - np.sum(alpha * want)) < 1e-12


def test_apply_comb_makes_no_copy_of_the_comb():
    rng = np.random.default_rng(55)
    model = random_env_model(5, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model, validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(4)]
    rho = random_density_matrix(2, rng)
    apply_comb(comb, layers, rho)
    tracemalloc.start()
    try:
        apply_comb(comb, layers, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < comb.choi_op.nbytes


# ---------------------------------------------------------------------------
# controlled swap as an index gather


def _vcp_channel_ref(noise, rho):
    d = noise.d_in
    dims = [2, d, d]
    state = tensor(np.full((2, 2), 0.5, dtype=complex), rho, np.eye(d) / d)
    state = conjugate_on(state, dims, [0, 1, 2], _cswap(d))
    state = apply_channel_on(state, dims, [1], noise)
    state = apply_channel_on(state, dims, [2], noise)
    state = conjugate_on(state, dims, [0, 1, 2], _cswap(d))
    return _branches(partial_trace(state, dims, keep=[0, 1]), d)


def _vcp_comb_ref(copy1, copy2, layers, rho):
    d = copy1.d_sys
    dims = [2, d, d, copy1.d_env, copy2.d_env]
    state = tensor(
        np.full((2, 2), 0.5, dtype=complex), rho, np.eye(d) / d, copy1.env_init, copy2.env_init
    )
    cswap = _cswap(d)
    state = conjugate_on(state, dims, [0, 1, 2], cswap)
    for m in range(copy1.teeth):
        state = conjugate_on(state, dims, [1, 3], copy1.interactions[m])
        state = conjugate_on(state, dims, [2, 4], copy2.interactions[m])
        state = conjugate_on(state, dims, [0, 1, 2], cswap)
        if m < len(layers):
            state = apply_channel_on(state, dims, [1], layers[m])
            state = apply_channel_on(state, dims, [2], completely_depolarizing(d))
            state = conjugate_on(state, dims, [0, 1, 2], cswap)
    return _branches(partial_trace(state, dims, keep=[0, 1]), d)


def _assert_results_agree(got, want):
    assert np.abs(got.virtual_state - want.virtual_state).max() < 1e-14
    assert np.abs(got.physical_state - want.physical_state).max() < 1e-14
    assert abs(got.p_plus - want.p_plus) < 1e-14
    assert abs(got.p_minus - want.p_minus) < 1e-14


@pytest.mark.parametrize("rest", [1, 3, 4])
@pytest.mark.parametrize("d", [2, 4])
def test_swap_index_is_the_dense_conjugation(d, rest):
    rng = np.random.default_rng([d, rest])
    n = 2 * d * d * rest
    state = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = conjugate_on(state, [2, d, d, rest], [0, 1, 2], _cswap(d))
    assert np.array_equal(state[_swap_index(d, rest)], want)


@pytest.mark.parametrize("teeth", [1, 2, 3])
@pytest.mark.parametrize("n_sys", [1, 2])
def test_vcp_matches_dense_swap_reference(n_sys, teeth):
    rng = np.random.default_rng([n_sys, teeth])
    d = 2**n_sys
    copy1 = random_env_model(teeth, n_sys_qubits=n_sys, rng=rng, interaction_strength=0.3)
    copy2 = random_env_model(teeth, n_sys_qubits=n_sys, rng=rng, interaction_strength=0.3)
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)
    _assert_results_agree(
        vcp_comb(copy1, copy2, layers, rho), _vcp_comb_ref(copy1, copy2, layers, rho)
    )
    noise = random_channel(d, rng=rng)
    _assert_results_agree(vcp_channel(noise, rho), _vcp_channel_ref(noise, rho))
