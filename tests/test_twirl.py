"""Tests for Pauli twirling and correlated Pauli tables."""

import numpy as np
import pytest

from qcombs.channels import (
    apply,
    depolarizing_channel,
    identity_channel,
    random_channel,
    unitary_channel,
)
from qcombs.combs import (
    apply_comb,
    choi_channel,
    comb_chi,
    comb_from_chi,
    comb_from_env_model,
    markovian_comb,
    random_env_model,
    validate_comb,
)
from qcombs.linalg import tensor
from qcombs.pauli import label_index, pauli_basis, pauli_labels
from qcombs.twirl import (
    PauliDiagTable,
    apply_correlated_pauli,
    comb_from_pauli_table,
    env_model_from_pauli_table,
    extract_pauli_diag,
    marginals,
    mutual_information,
    product_of_marginals,
    sampled_twirl,
    tv_distance,
    twirl_comb,
)

PAULIS = pauli_basis(1)


def twirl_channel(channel):
    """A channel's full Pauli twirl, as the twirl of its one-tooth comb."""
    return choi_channel(twirl_comb(markovian_comb([channel])))


def cnot_comb():
    """Two teeth coupled through a control qubit environment.

    The environment starts in |+><+| and each tooth applies CX with the
    environment as control, so the system picks up perfectly correlated
    X errors: the twirled table is I,I and X,X with weight 1/2 each.
    """
    cx = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    from qcombs.combs import EnvModel

    plus = np.full((2, 2), 0.5, dtype=complex)
    model = EnvModel(d_sys=2, d_env=2, env_init=plus, interactions=(cx, cx))
    return comb_from_env_model(model)


def two_tooth_table():
    return PauliDiagTable(
        probs={("I", "I"): 0.9, ("X", "Z"): 0.1}, teeth=2, n_qubits=1
    )


# ---------------------------------------------------------------------------
# twirl_comb


def test_twirl_matches_operational_average():
    # The twirled comb must act like the average over Pauli frames where
    # tooth m is conjugated by G_{a_m}.  Operationally each frame sandwiches
    # the input with G_{a_1}, redefines slot m as G_{a_{m+1}} . layer . G_{a_m},
    # and undoes G_{a_M} on the output.
    rng = np.random.default_rng(7)
    model = random_env_model(teeth=2, rng=rng)
    comb = comb_from_env_model(model)
    layer = random_channel(2, rng=rng)
    rho = np.diag([0.7, 0.3]).astype(complex)

    twirled = twirl_comb(comb)
    got = apply_comb(twirled, [layer], rho)

    acc = np.zeros((2, 2), dtype=complex)
    for a1 in range(4):
        for a2 in range(4):
            g1, g2 = PAULIS[a1], PAULIS[a2]
            dressed = _compose3(g2, layer, g1)
            out = apply_comb(comb, [dressed], g1 @ rho @ g1)
            acc += g2 @ out @ g2
    acc /= 16
    assert np.linalg.norm(got - acc) < 1e-12


def _compose3(g_after, layer, g_before):
    from qcombs.channels import compose

    return compose(unitary_channel(g_after), compose(layer, unitary_channel(g_before)))


def test_twirl_output_is_valid_comb():
    rng = np.random.default_rng(3)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    twirled = twirl_comb(comb)
    assert validate_comb(twirled).passes


def test_twirl_kills_offdiagonal_chi():
    from qcombs.combs import comb_chi

    rng = np.random.default_rng(11)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    chi = comb_chi(twirl_comb(comb))
    off = np.abs(chi).sum() - np.abs(np.diag(chi)).sum()
    assert off < 1e-12


def test_twirl_is_idempotent():
    rng = np.random.default_rng(5)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    once = twirl_comb(comb)
    twice = twirl_comb(once)
    assert np.linalg.norm(once.choi_op - twice.choi_op) < 1e-12


def test_pauli_table_combs_are_fixed_points():
    comb = comb_from_pauli_table(two_tooth_table())
    twirled = twirl_comb(comb)
    assert np.linalg.norm(twirled.choi_op - comb.choi_op) < 1e-12


def test_twirl_preserves_trace():
    rng = np.random.default_rng(13)
    comb = comb_from_env_model(random_env_model(teeth=3, rng=rng))
    twirled = twirl_comb(comb)
    assert np.isclose(np.trace(twirled.choi_op), np.trace(comb.choi_op))


def test_twirl_channel_gives_pauli_channel():
    from qcombs.channels import to_chi

    rng = np.random.default_rng(17)
    ch = random_channel(2, rng=rng)
    tw = twirl_channel(ch)
    chi = to_chi(tw)
    off = np.abs(chi).sum() - np.abs(np.diag(chi)).sum()
    assert off < 1e-12
    # Diagonal survives the twirl untouched.
    assert np.allclose(np.diag(chi), np.diag(to_chi(ch)))


def test_twirl_channel_rejects_rectangular():
    from qcombs.channels import Channel, from_kraus

    iso = np.zeros((4, 2), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    ch = from_kraus([iso])
    with pytest.raises(ValueError):
        twirl_channel(ch)


# ---------------------------------------------------------------------------
# extraction and reconstruction


def test_extract_roundtrip_on_twirled_comb():
    rng = np.random.default_rng(23)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    twirled = twirl_comb(comb)
    table = extract_pauli_diag(twirled)
    rebuilt = comb_from_pauli_table(table)
    assert np.linalg.norm(rebuilt.choi_op - twirled.choi_op) < 1e-10


def test_extract_rejects_untwirled_comb():
    rng = np.random.default_rng(29)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    with pytest.raises(ValueError, match="off-diagonal"):
        extract_pauli_diag(comb)


def test_extract_can_skip_offdiagonal_guard():
    rng = np.random.default_rng(29)
    comb = comb_from_env_model(random_env_model(teeth=2, rng=rng))
    table = extract_pauli_diag(comb, max_offdiag_mass=None)
    assert abs(sum(table.probs.values()) - 1.0) < 1e-9


def test_table_to_env_model_matches_direct_comb():
    table = two_tooth_table()
    via_model = comb_from_env_model(env_model_from_pauli_table(table))
    direct = comb_from_pauli_table(table)
    assert np.linalg.norm(via_model.choi_op - direct.choi_op) < 1e-12


def test_correlated_x_fixture_table():
    table = extract_pauli_diag(twirl_comb(cnot_comb()))
    live = {k: v for k, v in table.probs.items() if v > 1e-12}
    assert live == pytest.approx({("I", "I"): 0.5, ("X", "X"): 0.5})


def test_depolarizing_tooth_table():
    comb = markovian_comb([depolarizing_channel(0.2)])
    table = extract_pauli_diag(twirl_comb(comb))
    assert table.prob(("I",)) == pytest.approx(0.85)
    for lbl in "XYZ":
        assert table.prob((lbl,)) == pytest.approx(0.05)


def test_correlated_walker_matches_comb():
    table = two_tooth_table()
    comb = comb_from_pauli_table(table)
    rng = np.random.default_rng(31)
    layer = random_channel(2, rng=rng)
    rho = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
    direct = apply_correlated_pauli(table, [layer], rho)
    via_comb = apply_comb(comb, [layer], rho)
    assert np.linalg.norm(direct - via_comb) < 1e-12


def test_correlated_walker_checks_layer_count():
    with pytest.raises(ValueError):
        apply_correlated_pauli(two_tooth_table(), [], np.eye(2) / 2)


# ---------------------------------------------------------------------------
# sampled twirl


def test_sampled_twirl_is_deterministic_given_seed():
    comb = cnot_comb()
    a = sampled_twirl(comb, 50, rng=np.random.default_rng(0))
    b = sampled_twirl(comb, 50, rng=np.random.default_rng(0))
    assert np.array_equal(a.choi_op, b.choi_op)


def test_sampled_twirl_converges():
    # Needs a comb with genuine chi coherences; Pauli-table combs are fixed
    # by every individual frame, so sampling those is trivially exact.
    comb = comb_from_env_model(random_env_model(teeth=2, rng=np.random.default_rng(2)))
    exact = twirl_comb(comb)
    coarse = sampled_twirl(comb, 32, rng=np.random.default_rng(1))
    fine = sampled_twirl(comb, 8192, rng=np.random.default_rng(1))
    err_coarse = np.linalg.norm(coarse.choi_op - exact.choi_op)
    err_fine = np.linalg.norm(fine.choi_op - exact.choi_op)
    assert err_fine < err_coarse
    assert err_fine < 0.05


def test_sampled_twirl_is_exact_on_table_combs():
    comb = cnot_comb()
    exact = twirl_comb(comb)
    one_shot = sampled_twirl(comb, 1, rng=np.random.default_rng(0))
    assert np.linalg.norm(one_shot.choi_op - exact.choi_op) < 1e-14


def test_sampled_twirl_rejects_zero_samples():
    with pytest.raises(ValueError):
        sampled_twirl(cnot_comb(), 0)


def test_sampled_twirl_needs_an_integer_number_of_samples():
    """A float count is refused with a ValueError; numpy integers are accepted."""
    comb = cnot_comb()
    for samples in (2.5, 64.0, True):
        with pytest.raises(ValueError, match=f"samples must be an integer of at least 1, got {samples}"):
            sampled_twirl(comb, samples)
    a = sampled_twirl(comb, np.int64(3), rng=np.random.default_rng(0))
    b = sampled_twirl(comb, 3, rng=np.random.default_rng(0))
    assert np.array_equal(a.choi_op, b.choi_op)


# ---------------------------------------------------------------------------
# table statistics


def test_marginals_and_product():
    table = two_tooth_table()
    m = marginals(table)
    assert m[0] == pytest.approx({"I": 0.9, "X": 0.1})
    assert m[1] == pytest.approx({"I": 0.9, "Z": 0.1})
    prod = product_of_marginals(table)
    assert prod.prob(("I", "I")) == pytest.approx(0.81)
    assert prod.prob(("X", "Z")) == pytest.approx(0.01)
    assert prod.prob(("I", "Z")) == pytest.approx(0.09)
    assert abs(sum(prod.probs.values()) - 1.0) < 1e-12


def test_marginal_vectors_are_computed_once_per_table():
    """marginals, product_of_marginals and mutual_information share one
    read-only set of marginal vectors, with the bits of a fresh table's."""
    table = two_tooth_table()
    vectors = table._marginal_vectors
    assert table._marginal_vectors is vectors
    assert all(not v.flags.writeable for v in vectors)
    assert marginals(table) == marginals(two_tooth_table())
    want = product_of_marginals(two_tooth_table()).vector
    assert np.array_equal(product_of_marginals(table).vector, want)
    assert mutual_information(table) == mutual_information(two_tooth_table())
    assert table._marginal_vectors is vectors


def test_tv_distance_values():
    table = two_tooth_table()
    assert tv_distance(table, table) == 0.0
    prod = product_of_marginals(table)
    # |0.9-0.81| + |0.1-0.01| + 0.09 + 0.09, halved.
    assert tv_distance(table, prod) == pytest.approx(0.18)


def test_correlated_x_fixture_statistics():
    table = extract_pauli_diag(twirl_comb(cnot_comb()))
    prod = product_of_marginals(table)
    assert tv_distance(table, prod) == pytest.approx(0.5)
    assert mutual_information(table) == pytest.approx(1.0)


def test_mutual_information_of_product_is_zero():
    prod = product_of_marginals(two_tooth_table())
    assert abs(mutual_information(prod)) < 1e-12


def test_mutual_information_needs_two_teeth():
    table = PauliDiagTable(probs={("I",): 1.0}, teeth=1, n_qubits=1)
    with pytest.raises(ValueError):
        mutual_information(table)


# ---------------------------------------------------------------------------
# table validation


def test_table_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative"):
        PauliDiagTable(probs={("I", "I"): 1.1, ("X", "X"): -0.1}, teeth=2, n_qubits=1)


def test_table_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        PauliDiagTable(probs={("I", "I"): 0.5}, teeth=2, n_qubits=1)


def test_table_rejects_bad_labels():
    with pytest.raises(ValueError):
        PauliDiagTable(probs={("Q", "I"): 1.0}, teeth=2, n_qubits=1)
    with pytest.raises(ValueError):
        PauliDiagTable(probs={("II", "XI"): 1.0}, teeth=2, n_qubits=1)


def test_table_clamps_tiny_negatives_and_renormalizes():
    table = PauliDiagTable(
        probs={("I",): 1.0 + 5e-11, ("X",): -5e-11}, teeth=1, n_qubits=1
    )
    assert table.prob(("X",)) == 0.0
    assert table.prob(("I",)) == pytest.approx(1.0)
    assert sum(table.probs.values()) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# closed forms against the frame loops they replaced
#
# The loops below average explicit frame conjugations and are kept here
# only as references for the closed forms on the process matrix.


def _loop_twirl_comb(comb):
    n = comb.d_sys.bit_length() - 1
    singles = pauli_basis(n)
    acc = np.zeros_like(comb.choi_op)
    labels = pauli_labels(n * comb.teeth)
    for lbl in labels:
        per_tooth = [lbl[m * n : (m + 1) * n] for m in range(comb.teeth)]
        w = tensor(*(
            g
            for tooth_lbl in per_tooth
            for g in (singles[label_index(tooth_lbl)],) * 2
        ))
        acc += w @ comb.choi_op @ w
    return acc / len(labels)


def _loop_sampled_twirl(comb, samples, rng):
    n = comb.d_sys.bit_length() - 1
    singles = pauli_basis(n)
    acc = np.zeros_like(comb.choi_op)
    for _ in range(samples):
        draw = rng.integers(0, 4**n, size=comb.teeth)
        w = tensor(*(g for a in draw for g in (singles[a],) * 2))
        acc += w @ comb.choi_op @ w
    return acc / samples


def _loop_twirl_channel(channel):
    n = channel.d_in.bit_length() - 1
    acc = np.zeros_like(channel.choi)
    for g in pauli_basis(n):
        w = tensor(g, g)
        acc += w @ channel.choi @ w
    return acc / 4**n


def _loop_comb_from_pauli_table(table):
    singles = pauli_basis(table.n_qubits)
    acc = 0
    for key, p in table.probs.items():
        teeth = [unitary_channel(singles[label_index(lbl)]) for lbl in key]
        acc = acc + p * markovian_comb(teeth).choi_op
    return acc


# (teeth, system qubits, interaction strength; None is Haar), one environment qubit.
CLOSED_FORM_CASES = [
    (m, n_sys, strength)
    for m in (1, 2, 3)
    for n_sys in (1, 2)
    for strength in (None, 0.3)
    if n_sys == 1 or m <= 2
] + [(4, 1, None)]


def _sweep_comb(m, n_sys, strength):
    rng = np.random.default_rng(1000 + 10 * m + n_sys)
    model = random_env_model(
        teeth=m, n_sys_qubits=n_sys, rng=rng, interaction_strength=strength
    )
    return comb_from_env_model(model)


@pytest.mark.parametrize("m, n_sys, strength", CLOSED_FORM_CASES)
def test_closed_form_twirls_match_frame_loops(m, n_sys, strength):
    comb = _sweep_comb(m, n_sys, strength)
    exact = twirl_comb(comb)
    assert np.abs(exact.choi_op - _loop_twirl_comb(comb)).max() < 1e-12
    if m < 4:
        for samples in (1, 7, 64):
            got = sampled_twirl(comb, samples, rng=np.random.default_rng(samples))
            ref = _loop_sampled_twirl(comb, samples, np.random.default_rng(samples))
            assert np.abs(got.choi_op - ref).max() < 1e-12
    table = extract_pauli_diag(exact)
    rebuilt = comb_from_pauli_table(table)
    assert np.abs(rebuilt.choi_op - _loop_comb_from_pauli_table(table)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 4])
def test_closed_form_channel_twirl_matches_frame_loop(d):
    ch = random_channel(d, rng=np.random.default_rng(40 + d))
    assert np.abs(twirl_channel(ch).choi - _loop_twirl_channel(ch)).max() < 1e-12


@pytest.mark.parametrize("m, n_sys, strength", CLOSED_FORM_CASES)
def test_comb_from_chi_inverts_comb_chi(m, n_sys, strength):
    comb = _sweep_comb(m, n_sys, strength)
    back = comb_from_chi(comb_chi(comb), comb.teeth, comb.d_sys)
    assert (back.teeth, back.d_sys) == (comb.teeth, comb.d_sys)
    assert np.abs(back.choi_op - comb.choi_op).max() < 1e-12
