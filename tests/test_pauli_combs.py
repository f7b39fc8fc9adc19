"""Pauli-diagonal combs and vector tables.

A twirled comb and the comb of a Pauli table hold the table's probability
vector.  They close in Pauli coordinates and form no operator, and the
table arithmetic runs on the vector.  Each fast path is held against the
dense closing of the derived operator, the pointer-dilation oracle, the
closed-form purified states and the keyed forms in ``dense_reference``.
"""

import json
from functools import reduce

import numpy as np
import pytest

import dense_reference as ref
from qcombs import cli, combs
from qcombs.channels import (
    from_kraus,
    random_channel,
    random_density_matrix,
    random_unitary,
    tensor_channels,
    unitary_channel,
)
from qcombs.combs import (
    Comb,
    _close_factor,
    _Slots,
    apply_comb,
    comb_from_env_model,
    output_channel,
    random_env_model,
    simulate_env_model,
    validate_comb,
)
from qcombs.pauli import pauli_labels
from qcombs.twirl import (
    PauliDiagTable,
    apply_correlated_pauli,
    comb_from_pauli_table,
    env_model_from_pauli_table,
    extract_pauli_diag,
    marginals,
    mutual_information,
    pauli_table,
    product_of_marginals,
    tv_distance,
    twirl_comb,
)
from qcombs.vcp import reference_purified, vcp_comb


def _table(rng, teeth, n, entries=None):
    """A seeded table: a vector over all 4**(n*teeth) labels, or a dict of
    ``entries`` random keys in random order plus one explicit zero."""
    size = 4 ** (n * teeth)
    count = size if entries is None else min(entries + 1, size)
    weights = rng.random(count) + 0.05
    weights[0] += count / 4  # one dominant entry, as for weak noise
    if entries is None:
        return PauliDiagTable(weights / weights.sum(), teeth, n)
    weights[-1] = 0.0
    index = rng.choice(size, count, replace=False)
    labels = pauli_labels(n)
    keys = [tuple(labels[i // 4 ** (n * (teeth - 1 - m)) % 4**n] for m in range(teeth))
            for i in index]
    return PauliDiagTable(dict(zip(keys, (weights / weights.sum()).tolist())), teeth, n)


def _amplitude_damping(gamma, n):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return reduce(tensor_channels, [from_kraus([k0, k1])] * n)


def _layers(rng, teeth, n):
    """Amplitude damping, a T gate on every qubit, a random channel and a
    random unitary, in turn."""
    d = 2**n
    t_gate = reduce(np.kron, [np.diag([1, np.exp(1j * np.pi / 4)])] * n)
    make = [
        lambda: _amplitude_damping(0.3, n),
        lambda: unitary_channel(t_gate),
        lambda: random_channel(d, rng=rng),
        lambda: unitary_channel(random_unitary(d, rng)),
    ]
    return [make[m % 4]() for m in range(teeth - 1)]


def _dense(comb):
    """The comb as its derived operator alone."""
    return Comb(choi_op=Comb(teeth=comb.teeth, d_sys=comb.d_sys, pauli=comb.pauli).choi_op,
                teeth=comb.teeth, d_sys=comb.d_sys)


# ---------------------------------------------------------------------------
# closing in Pauli coordinates


CHAIN_CASES = [(m, 1) for m in range(1, 6)] + [(m, 2) for m in (1, 2)]


@pytest.mark.parametrize("entries", [None, 3])
@pytest.mark.parametrize("teeth, n", CHAIN_CASES)
def test_chain_matches_dense_closing(teeth, n, entries):
    rng = np.random.default_rng([teeth, n, entries or 0, 17])
    comb = comb_from_pauli_table(_table(rng, teeth, n, entries))
    dense = _dense(comb)
    d = 2**n
    layers = _layers(rng, teeth, n)
    rho = random_density_matrix(d, rng)
    # The dense comb closes through _close, the operator stacked with the plugs.
    assert np.abs(apply_comb(comb, layers, rho) - apply_comb(dense, layers, rho)).max() < 1e-12
    got, want = output_channel(comb, layers).choi, output_channel(dense, layers).choi
    assert np.abs(got - want).max() < 1e-12
    assert comb._choi_op is None


@pytest.mark.parametrize("entries", [None, 5])
def test_chain_at_three_teeth_of_two_qubits(entries):
    """At n=2 and M=3 the derived operator is 4096 x 4096, so the chain is
    held against the factor closing of a sparse table, with one factor
    column per entry (``dense_reference.table_factor``), and the
    entry-by-entry closed form of a full one."""
    rng = np.random.default_rng([3, 2, entries or 0])
    table = _table(rng, 3, 2, entries)
    comb = comb_from_pauli_table(table)
    layers = _layers(rng, 3, 2)
    rho = random_density_matrix(4, rng)
    if entries is None:
        want = apply_correlated_pauli(table, layers, rho)
    else:
        want = _close_factor(*ref.table_factor(table), 4, rho, _Slots(comb, layers).plugs)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12
    assert comb._choi_op is None


ORACLE_CASES = (
    [(m, 1, 6) for m in range(1, 7)]
    + [(m, 1, None) for m in (1, 2, 3)]
    + [(m, 2, 5) for m in (1, 2, 3)]
)


@pytest.mark.parametrize("teeth, n, entries", ORACLE_CASES)
def test_table_comb_matches_pointer_oracle(teeth, n, entries):
    rng = np.random.default_rng([teeth, n, entries or 0, 23])
    table = _table(rng, teeth, n, entries)
    d = 2**n
    layers = _layers(rng, teeth, n)
    rho = random_density_matrix(d, rng)
    want = simulate_env_model(env_model_from_pauli_table(table), layers, rho)
    comb = comb_from_pauli_table(table)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12


@pytest.mark.parametrize("teeth, n, entries", [(m, 1, e) for m in range(1, 6) for e in (None, 4)]
                         + [(m, 2, e) for m in (1, 2) for e in (None, 4)])
def test_vcp_of_table_combs_matches_reference(teeth, n, entries):
    rng = np.random.default_rng([teeth, n, entries or 0, 29])
    table = _table(rng, teeth, n, entries)
    comb = comb_from_pauli_table(table)
    layers = _layers(rng, teeth, n)
    rho = random_density_matrix(2**n, rng)
    res = vcp_comb(comb, comb, layers, rho)
    assert res.p_gap == pytest.approx(float(np.sum(table.vector**2)), abs=1e-12)
    for which, got in (("virtual", res.virtual_state), ("physical", res.physical_state)):
        assert np.abs(got - reference_purified(table, layers, rho, which)).max() < 1e-12
    assert comb._choi_op is None


@pytest.mark.parametrize("teeth", [1, 2, 3])
def test_vcp_of_two_tables_matches_pointer_dilations(teeth):
    """Two different tables close as the comb of p1 p2, against the
    coherence evolved on both pointer environments."""
    rng = np.random.default_rng([teeth, 31])
    t1, t2 = _table(rng, teeth, 1, 4), _table(rng, teeth, 1, 5)
    layers = _layers(rng, teeth, 1)
    rho = random_density_matrix(2, rng)
    got = vcp_comb(comb_from_pauli_table(t1), comb_from_pauli_table(t2), layers, rho)
    want = vcp_comb(env_model_from_pauli_table(t1), env_model_from_pauli_table(t2), layers, rho)
    assert got.p_plus == pytest.approx(want.p_plus, abs=1e-12)
    assert np.abs(got.virtual_state - want.virtual_state).max() < 1e-12
    assert np.abs(got.physical_state - want.physical_state).max() < 1e-12


def test_pauli_combs_form_no_operator_at_seven_teeth(monkeypatch):
    def refuse(*args):
        raise AssertionError("the operator of a Pauli comb was formed")

    monkeypatch.setattr(combs, "_pauli_op", refuse)
    rng = np.random.default_rng(7)
    comb = comb_from_env_model(random_env_model(7, rng=rng, interaction_strength=0.3),
                               validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(6)]
    rho = random_density_matrix(2, rng)
    twirled = twirl_comb(comb)
    table = extract_pauli_diag(twirled)
    assert np.array_equal(table.vector, pauli_table(twirled).vector)
    out = apply_comb(twirled, layers, rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    copy = comb_from_pauli_table(table)
    vcp_comb(copy, copy, layers, rho)
    output_channel(copy, layers)
    for c in (comb, twirled, copy):
        assert c._choi_op is None


def test_pauli_combs_take_layers_from_a_generator():
    rng = np.random.default_rng(41)
    comb = comb_from_pauli_table(_table(rng, 3, 1))
    layers = _layers(rng, 3, 1)
    rho = random_density_matrix(2, rng)
    got = apply_comb(comb, (layer for layer in layers), rho)
    assert np.array_equal(got, apply_comb(comb, layers, rho))
    got = output_channel(comb, (layer for layer in layers)).choi
    assert np.array_equal(got, output_channel(comb, layers).choi)
    with pytest.raises(ValueError, match="expected 2 slot channels"):
        apply_comb(comb, layers[:1], rho)


def test_pauli_weights_must_be_real_and_fit():
    with pytest.raises(ValueError, match="16 real numbers"):
        Comb(teeth=2, d_sys=2, pauli=np.ones(16, dtype=complex) / 16)
    with pytest.raises(ValueError, match="16 real numbers"):
        Comb(teeth=2, d_sys=2, pauli=np.ones(4) / 4)


# ---------------------------------------------------------------------------
# validity and mixed pairings read from the weights


def _assert_report_matches_operator(comb):
    """The report read from p against the one of the derived operator."""
    got = validate_comb(comb)
    want = validate_comb(Comb(choi_op=comb.choi_op, teeth=comb.teeth, d_sys=comb.d_sys))
    assert (got.passes, got.psd_ok) == (want.passes, want.psd_ok)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-12 * comb.d_sys**comb.teeth
    assert len(got.per_level_residuals) == comb.teeth
    assert np.abs(np.subtract(got.per_level_residuals, want.per_level_residuals)).max() <= 1e-12
    return got


@pytest.mark.parametrize("entries", [None, 3])
@pytest.mark.parametrize("teeth, n", CHAIN_CASES)
def test_pauli_report_matches_the_derived_operator(teeth, n, entries):
    rng = np.random.default_rng([teeth, n, entries or 0, 43])
    comb = comb_from_pauli_table(_table(rng, teeth, n, entries))
    assert _assert_report_matches_operator(comb).passes


@pytest.mark.parametrize("teeth", [1, 2, 3])
def test_pauli_report_refuses_a_negative_weight_and_a_wrong_sum(teeth):
    p = _table(np.random.default_rng([teeth, 47]), teeth, 1).vector.copy()
    negative = p.copy()
    negative[[0, -1]] += [0.05, -0.05 - p[-1]]
    report = _assert_report_matches_operator(Comb(teeth=teeth, d_sys=2, pauli=negative))
    assert not report.psd_ok and not report.passes
    assert report.min_eigenvalue == pytest.approx(-0.05 * 2**teeth, rel=1e-12)
    report = _assert_report_matches_operator(Comb(teeth=teeth, d_sys=2, pauli=1.01 * p))
    assert report.psd_ok and not report.passes
    assert report.per_level_residuals[0] == pytest.approx(0.01 / 1.01)
    assert report.per_level_residuals[1:] == (0.0,) * (teeth - 1)


def _assert_vcp_close(got, want):
    """Within 1e-12, the virtual state times the gap it was divided by."""
    assert got.p_plus == pytest.approx(want.p_plus, abs=1e-12)
    assert got.p_minus == pytest.approx(want.p_minus, abs=1e-12)
    assert np.abs(got.p_gap * got.virtual_state - want.p_gap * want.virtual_state).max() < 1e-12
    assert np.abs(got.physical_state - want.physical_state).max() < 1e-12


@pytest.mark.parametrize("teeth, n, entries",
                         [(m, 1, e) for m in range(1, 6) for e in (None, 3)]
                         + [(m, 2, e) for m in (1, 2) for e in (None, 3)])
def test_mixed_vcp_matches_the_pointer_dilation(teeth, n, entries):
    """A table comb beside a dilation comb, in both orders, against the
    table's pointer dilation beside the dilation.  A full table's pointer
    environment has 4**(n M) levels, so where the coherence would evolve
    more than 2048 levels the reference is the table comb's derived
    operator instead (n=1, M=5 and n=2, M=2)."""
    rng = np.random.default_rng([teeth, n, entries or 0, 53])
    table = _table(rng, teeth, n, entries)
    model = random_env_model(teeth, n_sys_qubits=n, rng=rng, interaction_strength=0.3)
    comb, dilation = comb_from_pauli_table(table), comb_from_env_model(model, validate=False)
    layers = _layers(rng, teeth, n)
    rho = random_density_matrix(2**n, rng)
    small = len(table.probs) * 2**n <= 512
    pointer = env_model_from_pauli_table(table) if small else _dense(comb)
    _assert_vcp_close(vcp_comb(comb, dilation, layers, rho), vcp_comb(pointer, model, layers, rho))
    _assert_vcp_close(vcp_comb(dilation, comb, layers, rho), vcp_comb(model, pointer, layers, rho))
    # A dilation whose factor is not thin (n=1, M=1) closes the dense product.
    assert (comb._choi_op is None) == (dilation.factor[0].shape[1] < 4 ** (n * teeth))


def test_pauli_reads_form_no_operator_at_seven_teeth(monkeypatch, tmp_path, capsys):
    """Validation, the CLI trace and both mixed VCP orders run at M=7, where
    the derived operator would have 16384 rows, and mixed VCP matches the
    pointer dilation of the table."""
    def refuse(*args):
        raise AssertionError("the operator of a Pauli comb was formed")

    monkeypatch.setattr(combs, "_pauli_op", refuse)
    rng = np.random.default_rng(59)
    table = _table(rng, 7, 1, 6)
    comb = comb_from_pauli_table(table)
    assert validate_comb(comb).passes
    model = random_env_model(7, rng=rng, interaction_strength=0.3)
    dilation = comb_from_env_model(model, validate=False)
    layers = _layers(rng, 7, 1)
    rho = random_density_matrix(2, rng)
    pointer = env_model_from_pauli_table(table)
    _assert_vcp_close(vcp_comb(comb, dilation, layers, rho), vcp_comb(pointer, model, layers, rho))
    _assert_vcp_close(vcp_comb(dilation, comb, layers, rho), vcp_comb(model, pointer, layers, rho))
    probs = {":".join(key): p for key, p in table.probs.items()}
    spec = tmp_path / "table.json"
    spec.write_text(json.dumps({"kind": "pauli_correlated", "teeth": 7, "d_sys": 2,
                                "payload": {"probs": probs}}))
    assert cli.main(["validate", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] is True
    assert doc["trace"] == pytest.approx(doc["expected_trace"], abs=1e-12)
    assert len(doc["per_level_residuals"]) == 7


# ---------------------------------------------------------------------------
# the table's vector and its keyed view


ARITH_CASES = (
    [(m, 1, e) for m in range(1, 6) for e in (None, 4)]
    + [(m, 2, None) for m in (1, 2, 3)]
    + [(m, 2, 4) for m in range(1, 6)]
)


@pytest.mark.parametrize("teeth, n, entries", ARITH_CASES)
def test_vector_arithmetic_matches_keyed_forms(teeth, n, entries):
    rng = np.random.default_rng([teeth, n, entries or 0, 37])
    table = _table(rng, teeth, n, entries)
    for got, want in zip(marginals(table), ref.marginals(table)):
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-15
    product, keyed = product_of_marginals(table), ref.product_of_marginals(table)
    assert product.probs.keys() == keyed.probs.keys()
    assert np.abs(product.vector - keyed.vector).max() <= 1e-15
    assert abs(tv_distance(table, product) - ref.tv_distance(table, keyed)) <= 1e-15
    if teeth == 2:
        assert abs(mutual_information(table) - ref.mutual_information(table)) <= 1e-15


def test_keyed_view_lists_the_given_keys_once():
    """A dict table lists exactly its keys in its order, explicit zeros
    included, and builds the view once; a computed table lists every label."""
    probs = {("X", "I", "Z", "Y"): 0.25, ("I", "I", "I", "I"): 0.5,
             ("Z", "Z", "Z", "Z"): 0.0, ("Y", "X", "I", "I"): 0.25}
    table = PauliDiagTable(probs, teeth=4, n_qubits=1)
    assert list(table.probs) == list(probs)
    assert table.probs == probs
    assert table.probs is table.probs
    assert table.vector.shape == (256,) and np.count_nonzero(table.vector) == 3
    assert table.prob(("Z", "Z", "Z", "Z")) == 0.0 and table.prob("YXII") == 0.25

    comb = comb_from_env_model(random_env_model(4, rng=np.random.default_rng(4)), validate=False)
    computed = pauli_table(comb)
    assert len(computed.probs) == 256
    assert list(computed.probs) == sorted(computed.probs)


def test_vector_tables_word_a_negative_entry_and_a_bad_size():
    p = np.full(16, 1 / 14)
    p[[5, 9]] = -1 / 14
    with pytest.raises(ValueError, match=r"probability of \('X', 'X'\) is negative"):
        PauliDiagTable(p, teeth=2, n_qubits=1)
    with pytest.raises(ValueError, match="needs 16 probabilities"):
        PauliDiagTable(np.ones(4) / 4, teeth=2, n_qubits=1)


def test_tv_distance_needs_tables_of_one_shape():
    one = PauliDiagTable({("I",): 1.0}, teeth=1, n_qubits=1)
    two = PauliDiagTable({("I", "I"): 1.0}, teeth=2, n_qubits=1)
    with pytest.raises(ValueError, match="same teeth and qubits"):
        tv_distance(one, two)
