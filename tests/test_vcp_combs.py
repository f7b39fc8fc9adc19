"""Two-copy purification of combs: the coherence block as the product comb.

``vcp_comb`` on two combs closes ``C1 C2 / d**M`` for the coherence
block, through the factors when either is thin and through the dense
product otherwise.  These tests hold that route against the dilation
route (two ``EnvModel`` copies), the full control-circuit reference and
the closed form for Pauli tables, and check that the CLI purifies tables
as combs, with no pointer dilation.
"""

import inspect
import itertools
import json
import operator
import re
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import dense_reference as ref
import qcombs
from qcombs import cli, combs, twirl, vcp
from qcombs.channels import identity_channel, random_channel, random_density_matrix
from qcombs.combs import (
    Comb, _close_product, _Slots, apply_comb, comb_from_env_model, output_channel,
    random_env_model, simulate_env_model,
)
from qcombs.linalg import tensor
from qcombs.pauli import label_index, pauli_basis, qubit_count
from qcombs.pec import decompose_inverse, pec_correct_exact, pec_sample
from qcombs.twirl import (
    PauliDiagTable, apply_correlated_pauli, comb_from_pauli_table, env_model_from_pauli_table,
)
from qcombs.vcp import _coherence, reference_purified, vcp_channel, vcp_comb
from test_closing import _vcp_comb_ref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _assert_unnormalised_close(got, want, tol):
    """The virtual state divides by the gap, so compare it unnormalised."""
    assert abs(got.p_plus - want.p_plus) < tol
    assert abs(got.p_minus - want.p_minus) < tol
    assert np.abs(got.p_gap * got.virtual_state - want.p_gap * want.virtual_state).max() < tol
    assert np.abs(got.physical_state - want.physical_state).max() < tol


def _dense(comb: Comb) -> Comb:
    return Comb(choi_op=comb.choi_op.copy(), teeth=comb.teeth, d_sys=comb.d_sys)


_SWEEP = [
    (teeth, n_sys, envs, strength)
    for n_sys, max_teeth in ((1, 5), (2, 3))
    for teeth in range(1, max_teeth + 1)
    for envs in ((1, 1), (1, 2), (2, 1), (2, 2))
    for strength in (0.1, 0.6, None)
]


@pytest.mark.parametrize("teeth, n_sys, envs, strength", _SWEEP)
def test_comb_copies_match_dilations_and_control_circuit(teeth, n_sys, envs, strength):
    """Factor, dense and mixed copies against the dilation route and the
    full control circuit, to 1e-12.  ``strength=None`` draws Haar
    interactions.  Dense copies run where the comb has at most 1024 rows."""
    rng = np.random.default_rng([teeth, n_sys, *envs, int(100 * (strength or 0))])
    m1, m2 = (
        random_env_model(
            teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng, interaction_strength=strength
        )
        for n_env in envs
    )
    d = 2**n_sys
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)
    f1, f2 = comb_from_env_model(m1, validate=False), comb_from_env_model(m2, validate=False)
    circuit = _vcp_comb_ref(m1, m2, layers, rho)
    dilations = vcp_comb(m1, m2, layers, rho)
    _assert_unnormalised_close(dilations, circuit, 1e-12)
    pairs = [(f1, f2), (m1, f2)]
    if d ** (2 * teeth) <= 1024:
        # The dense product costs d**(6M): 70 Gflop at two qubits and M=3.
        pairs += [(_dense(f1), _dense(f2)), (f1, _dense(f2)), (_dense(f1), m2)]
    for pair in pairs:
        got = vcp_comb(*pair, layers, rho)
        _assert_unnormalised_close(got, dilations, 1e-12)
        _assert_unnormalised_close(got, circuit, 1e-12)


@pytest.mark.parametrize("teeth, n_sys", [(1, 1), (3, 1), (5, 1), (2, 2)])
def test_product_comb_closes_to_the_coherence_block(teeth, n_sys):
    """C1 C2 / d**M closes to the block itself; C2 C1 would give its adjoint,
    which the outcome branches cannot tell apart."""
    rng = np.random.default_rng([teeth, n_sys, 7])
    m1, m2 = (
        random_env_model(teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng)
        for n_env in (1, 2)
    )
    d = 2**n_sys
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)
    f1, f2 = comb_from_env_model(m1, validate=False), comb_from_env_model(m2, validate=False)
    want = _coherence(m1, m2, layers, rho)
    slots = _Slots(f1, layers)
    assert np.abs(_close_product(f1, f2, slots, rho) - want).max() < 1e-12
    assert np.abs(_close_product(_dense(f1), f2, slots, rho) - want).max() < 1e-12


def test_thin_factors_close_without_the_dense_product(monkeypatch):
    """Two factor copies never build either comb operator."""
    rng = np.random.default_rng(8)
    m1, m2 = (random_env_model(4, rng=rng, interaction_strength=0.3) for _ in range(2))
    f1, f2 = comb_from_env_model(m1, validate=False), comb_from_env_model(m2, validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(3)]
    rho = random_density_matrix(2, rng)
    want = vcp_comb(m1, m2, layers, rho)

    def refuse(self):
        raise AssertionError("the dense comb operator was built")

    monkeypatch.setattr(Comb, "choi_op", property(refuse))
    _assert_unnormalised_close(vcp_comb(f1, f2, layers, rho), want, 1e-12)


def test_one_thin_copy_closes_without_the_dense_product(monkeypatch):
    """A thin copy beside a dense one closes through factors on either side."""
    rng = np.random.default_rng(9)
    m1, m2 = (random_env_model(3, rng=rng, interaction_strength=0.3) for _ in range(2))
    f1, f2 = comb_from_env_model(m1, validate=False), comb_from_env_model(m2, validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(2)]
    rho = random_density_matrix(2, rng)
    want = vcp_comb(m1, m2, layers, rho)
    close, copies = combs._close, []

    def refuse(comb, *args):
        # The dense copy's own single-copy block closes densely; nothing else may.
        if not any(comb is c for c in copies):
            raise AssertionError("the dense product was closed")
        return close(comb, *args)

    monkeypatch.setattr(combs, "_close", refuse)
    for pair in ((f1, _dense(f2)), (_dense(f1), f2)):
        copies[:] = pair
        _assert_unnormalised_close(vcp_comb(*pair, layers, rho), want, 1e-12)


@pytest.mark.parametrize("dense", [False, True])
def test_comb_copies_take_layers_from_a_generator(dense):
    rng = np.random.default_rng(10)
    m1, m2 = (random_env_model(3, rng=rng, interaction_strength=0.3) for _ in range(2))
    c1, c2 = (comb_from_env_model(m, validate=False) for m in (m1, m2))
    if dense:
        c1, c2 = _dense(c1), _dense(c2)
    layers = [random_channel(2, rng=rng) for _ in range(2)]
    rho = random_density_matrix(2, rng)
    got = vcp_comb(c1, c2, (layer for layer in layers), rho)
    _assert_unnormalised_close(got, vcp_comb(m1, m2, layers, rho), 1e-12)


def test_one_object_runs_its_single_copy_block_once(monkeypatch):
    """Both copies one object: the single-copy run is made once, and the
    result equals that of two equal copies built apart, bit for bit."""
    calls = []
    for name in ("simulate_env_model", "_closed"):
        run = getattr(vcp, name)
        monkeypatch.setattr(
            vcp, name, lambda c, *a, run=run, **kw: calls.append(c) or run(c, *a, **kw)
        )
    rng = np.random.default_rng(11)
    layers = [random_channel(2, rng=rng) for _ in range(2)]
    rho = random_density_matrix(2, rng)
    table = _random_table(rng, 3, 1, entries=4)

    def model():
        return random_env_model(3, rng=np.random.default_rng(5), interaction_strength=0.3)

    for build in (model, lambda: comb_from_env_model(model(), validate=False),
                  lambda: comb_from_pauli_table(table)):
        one, other = build(), build()
        calls.clear()
        got = vcp_comb(one, one, layers, rho)
        assert sum(c is one for c in calls) == 1
        calls.clear()
        want = vcp_comb(one, other, layers, rho)
        assert sum(c is one for c in calls) == sum(c is other for c in calls) == 1
        for field in ("virtual_state", "physical_state", "p_plus", "p_minus"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def _bits(result) -> list[np.ndarray]:
    """The arrays of a closing's result: a state, a VcpResult or an (estimate, error) pair."""
    if isinstance(result, vcp.VcpResult):
        return [np.asarray(getattr(result, f)) for f in ("virtual_state", "physical_state",
                                                         "p_plus", "p_minus")]
    return [np.asarray(result)]


def test_states_given_as_lists_close_like_arrays():
    """Every public entry that takes a state ``rho``: a nested-list state
    gives the bits of the array, for every comb store and for dilations; a
    state of the wrong shape raises the shared message; a slot channel of
    another dimension is refused, on a table too.  The case table has to
    name every function of ``qcombs.__all__`` with a ``rho`` parameter."""
    rng = np.random.default_rng(12)
    model = random_env_model(3, rng=rng, interaction_strength=0.3)
    layers = [random_channel(2, rng=rng) for _ in range(2)]
    rho = random_density_matrix(2, rng)
    factor = comb_from_env_model(model, validate=False)
    table = _random_table(rng, 3, 1, entries=4)
    pauli = comb_from_pauli_table(table)
    copies = (factor, _dense(factor), pauli)
    decomp, z = decompose_inverse(factor), pauli_basis(1)[3]
    cases = {
        "apply": [lambda ls, r: qcombs.apply(layers[0], r)],
        "apply_comb": [partial(apply_comb, c) for c in copies],
        "simulate_env_model": [partial(simulate_env_model, model)],
        "vcp_comb": [partial(vcp_comb, c, c) for c in (model, *copies)],
        "vcp_channel": [lambda ls, r: vcp_channel(layers[0], r)],
        "pec_correct_exact": [lambda ls, r: pec_correct_exact(factor, decomp, ls, r, z)],
        "pec_sample": [lambda ls, r: pec_sample(factor, decomp, ls, r, z, 100,
                                                np.random.default_rng(0))],
        "apply_correlated_pauli": [partial(apply_correlated_pauli, table)],
        "reference_purified": [partial(reference_purified, table)],
    }
    with_rho = {name for name in qcombs.__all__ if inspect.isfunction(getattr(qcombs, name))
                and "rho" in inspect.signature(getattr(qcombs, name)).parameters}
    assert set(cases) == with_rho
    qutrit_slots = [identity_channel(3)] * 2
    for name, runs in cases.items():
        for run in runs:
            for got, want in zip(_bits(run(layers, rho.tolist())), _bits(run(layers, rho))):
                assert np.array_equal(got, want), name
            with pytest.raises(ValueError, match=re.escape(
                    "input state shape (1, 3) does not match the system dimension 2")):
                run(layers, [[1.0, 0.0, 0.0]])
            if name not in ("apply", "vcp_channel"):
                with pytest.raises(ValueError, match="slot channel dimension"):
                    run(qutrit_slots, rho)
    for comb in copies:
        with pytest.raises(ValueError, match="slot channel dimension"):
            output_channel(comb, qutrit_slots)
    with pytest.raises(ValueError, match="input state shape"):
        vcp_comb(factor, pauli, layers, [[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Pauli tables as combs


@pytest.mark.parametrize("teeth, n", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2)])
def test_table_combs_hold_only_their_weights(teeth, n):
    """Full and sparse tables give Pauli combs with no factor, holding the
    table's vector; the operator of a sparse one has one factor column per
    nonzero entry, and a Pauli comb refuses a factor."""
    rng = np.random.default_rng([teeth, n, 2])
    full = _random_table(rng, teeth, n)
    table = _random_table(rng, teeth, n, entries=3)
    zero = next(k for k in full.probs if k not in table.probs)
    table = PauliDiagTable(probs={**table.probs, zero: 0.0}, teeth=teeth, n_qubits=n)
    for t in (full, table):
        comb = comb_from_pauli_table(t)
        assert comb.factor is None
        want = np.zeros(4 ** (n * teeth))
        for key, p in t.probs.items():
            want[label_index("".join(key))] = p
        assert np.array_equal(comb.pauli, want)
    a, s = ref.table_factor(table)
    assert a.shape == (4 ** (n * teeth), 3)
    assert np.abs((a * s) @ a.conj().T - comb.choi_op).max() < 1e-15
    with pytest.raises(ValueError, match="only its weights"):
        Comb(teeth=teeth, d_sys=2**n, pauli=comb.pauli, factor=(a, s))


def test_two_pauli_copies_convert_each_layer_once(monkeypatch):
    """Both single-copy blocks and the p1 p2 coherence close through one
    transfer matrix per slot channel, with the bits of three separate closings."""
    rng = np.random.default_rng(23)
    layers = [random_channel(2, rng=rng) for _ in range(3)]
    rho = random_density_matrix(2, rng)
    c1, c2 = (comb_from_pauli_table(_random_table(rng, 4, 1, entries=6)) for _ in range(2))
    t00, t11 = apply_comb(c1, layers, rho), apply_comb(c2, layers, rho)
    t01 = apply_comb(Comb(teeth=4, d_sys=2, pauli=c1.pauli * c2.pauli), layers, rho)
    want = vcp._branches(0.5 * np.block([[t00, t01], [t01.conj().T, t11]]), 2)
    converted, to_ptm = [], combs.to_ptm
    monkeypatch.setattr(combs, "to_ptm", lambda ch: converted.append(ch) or to_ptm(ch))
    for copy2 in (c2, c1):
        converted.clear()
        vcp_comb(c1, copy2, layers, rho)
        assert len(converted) == len(layers)
        assert all(map(operator.is_, converted, layers))
    got = vcp_comb(c1, c2, layers, rho)
    for field in ("virtual_state", "physical_state", "p_plus", "p_minus"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def _random_table(rng, teeth, n, entries=None):
    """A table on ``entries`` random keys, or on all 4**(n*teeth) keys."""
    keys = list(itertools.product(["".join(p) for p in itertools.product("IXYZ", repeat=n)],
                                  repeat=teeth))
    if entries is not None:
        keys = [keys[i] for i in rng.choice(len(keys), size=entries, replace=False)]
    weights = rng.random(len(keys)) + 0.05
    weights[0] += len(keys) / 4  # one dominant entry, as for weak noise
    return PauliDiagTable(
        probs=dict(zip(keys, (weights / weights.sum()).tolist())), teeth=teeth, n_qubits=n
    )


_FULL_TABLES = [(teeth, 1) for teeth in range(1, 5)] + [(teeth, 2) for teeth in (1, 2)]


@pytest.mark.parametrize("teeth, n", _FULL_TABLES)
def test_full_table_combs_match_reference(teeth, n):
    """Tables listing all 4**(n*teeth) keys, against the closed form to 1e-12."""
    rng = np.random.default_rng([teeth, n])
    table = _random_table(rng, teeth, n)
    comb = comb_from_pauli_table(table)
    d = 2**n
    layers = [random_channel(d, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(d, rng)
    res = vcp_comb(comb, comb, layers, rho)
    p2 = sum(p * p for p in table.probs.values())
    assert res.p_gap == pytest.approx(p2, abs=1e-12)
    for which, got in (("virtual", res.virtual_state), ("physical", res.physical_state)):
        assert np.abs(got - reference_purified(table, layers, rho, which)).max() < 1e-12


@pytest.mark.parametrize("teeth, entries", [(1, 3), (2, 5), (2, 16), (3, 7), (3, 16)])
def test_sparse_table_combs_match_pointer_dilations(teeth, entries):
    rng = np.random.default_rng([teeth, entries, 1])
    table = _random_table(rng, teeth, 1, entries)
    comb = comb_from_pauli_table(table)
    model = env_model_from_pauli_table(table)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(2, rng)
    got = vcp_comb(comb, comb, layers, rho)
    _assert_unnormalised_close(got, vcp_comb(model, model, layers, rho), 1e-12)
    _assert_unnormalised_close(vcp_comb(comb, model, layers, rho), got, 1e-12)
    for which, state in (("virtual", got.virtual_state), ("physical", got.physical_state)):
        assert np.abs(state - reference_purified(table, layers, rho, which)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("entries", [1, 2, 5, 11, 16])
def test_pointer_interactions_are_controlled_paulis(n, entries):
    """Each tooth's interaction is sum_k P_k (x) |k><k|, bit for bit."""
    rng = np.random.default_rng([n, entries])
    table = _random_table(rng, 3, n, entries)
    model = env_model_from_pauli_table(table)
    keys = sorted(table.probs)
    singles = pauli_basis(n)
    for m, u in enumerate(model.interactions):
        want = sum(
            tensor(singles[label_index(key[m])], np.diag(np.eye(entries)[k]))
            for k, key in enumerate(keys)
        )
        assert np.array_equal(u, want)


def test_qubit_count():
    assert [qubit_count(d) for d in (1, 2, 4, 1024)] == [0, 1, 2, 10]
    for d in (0, 3, 6, 12):
        with pytest.raises(ValueError, match="is not a power of two"):
            qubit_count(d)


# ---------------------------------------------------------------------------
# the CLI purifies tables as combs


def test_cli_purifies_three_tooth_markovian_spec(capsys, tmp_path):
    """A pointer dilation of this spec's 64-entry table would need a
    coherence operator of 8192 levels a side; the product comb has 64."""
    spec = tmp_path / "depol3.json"
    spec.write_text(json.dumps({
        "kind": "markovian", "teeth": 3, "d_sys": 2,
        "payload": {"channels": [{"name": "depolarizing", "p": 0.1}] * 3},
    }))
    start = time.perf_counter()
    code = cli.main(["vcp", str(spec), "--layer", "h", "--input", "plus"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["twirled_first"] is True
    assert max(doc["reference_errors"].values()) <= 1e-12
    p = 1 - 0.1 * 3 / 4  # each tooth keeps I with this weight and splits the rest
    assert doc["p_gap"] == pytest.approx((p**2 + 3 * ((1 - p) / 3) ** 2) ** 3, abs=1e-12)
    assert elapsed < 1.0


def test_cli_purifies_sparse_tables_through_their_factors(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense product was closed")

    monkeypatch.setattr(combs, "_close", refuse)
    code = cli.main(["vcp", str(FIXTURES / "pauli_correlated.json"), "--input", "plus"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert max(doc["reference_errors"].values()) <= 1e-12


@pytest.mark.parametrize("fixture", ["pauli_correlated", "markovian_depol", "choi_explicit"])
def test_cli_vcp_never_builds_a_pointer_dilation(capsys, monkeypatch, fixture):
    def refuse(table):
        raise AssertionError("a pointer dilation was built")

    monkeypatch.setattr(twirl, "env_model_from_pauli_table", refuse)
    monkeypatch.setattr(cli, "env_model_from_pauli_table", refuse, raising=False)
    spec = str(FIXTURES / f"{fixture}.json")
    for extra in ([], ["--spec2", str(FIXTURES / "pauli_correlated.json")]):
        code = cli.main(["vcp", spec, "--input", "plus", "--layer", "h", *extra])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["p_gap"] > 0

