"""A dilation comb read from its purification factor alone.

``comb_from_env_model`` returns a comb that holds only ``(a, s)`` with
``choi_op = a diag(s) a^dag``; the dense operator is derived on first
access and kept.  Validation, the Pauli table and closing read the
factor.  The references are the same comb without its factor, which
takes the dense paths, and ``simulate_env_model``, which never forms a
comb.  The oracle itself is held against its former channel-on-wires
form and against a Kraus-operator evolution.
"""

import json
import tracemalloc

import numpy as np
import pytest

from dense_reference import apply_channel_on, purified_factor
from qcombs import combs, pec, twirl
from qcombs.channels import (
    from_kraus,
    random_channel,
    random_density_matrix,
    unitary_channel,
)
from qcombs.cli import encode_matrix, main
from qcombs.combs import (
    Comb,
    EnvModel,
    apply_comb,
    comb_from_env_model,
    output_channel,
    random_env_model,
    simulate_env_model,
    validate_comb,
)
from qcombs.linalg import partial_trace, tensor
from qcombs.pauli import label_index

# (teeth, environment qubits, strength; None is Haar).
SWEEP = [
    (m, n_env, strength) for m in (1, 2, 3, 4) for n_env in (1, 2) for strength in (0.1, None)
] + [(5, 1, 0.1), (5, 2, None)]
SIGNS = [(1.0, 1.0, 1.0), (1.0, -1.0, 0.5)]


def _dense(comb: Comb) -> Comb:
    """The same comb without its factor, so every stage reads ``choi_op``."""
    return Comb(choi_op=comb.choi_op, teeth=comb.teeth, d_sys=comb.d_sys)


def _count_builds(monkeypatch) -> list:
    """Record every comb whose dense operator is derived from its factor."""
    builds = []
    derive = Comb.choi_op.fget

    def counting(comb):
        if comb._choi_op is None:
            builds.append(comb)
        return derive(comb)

    monkeypatch.setattr(Comb, "choi_op", property(counting))
    return builds


def _truncated(model: EnvModel, teeth: int) -> EnvModel:
    """The dilation of the first ``teeth`` interactions of ``model``."""
    return EnvModel(
        d_sys=model.d_sys,
        d_env=model.d_env,
        env_init=model.env_init,
        interactions=model.interactions[:teeth],
    )


def _assert_reports_agree(got, want, tol=1e-12, eig_scale=1.0):
    assert (got.passes, got.psd_ok) == (want.passes, want.psd_ok)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) < tol * eig_scale
    assert len(got.per_level_residuals) == len(want.per_level_residuals)
    diff = np.subtract(got.per_level_residuals, want.per_level_residuals)
    assert np.abs(diff).max() < tol * max(1.0, *want.per_level_residuals)


@pytest.mark.parametrize("teeth, n_env, strength", SWEEP)
def test_factor_and_dense_results_agree(teeth, n_env, strength):
    rng = np.random.default_rng([110, teeth, n_env, int(100 * (strength or 0))])
    model = random_env_model(teeth, n_env_qubits=n_env, rng=rng, interaction_strength=strength)
    comb = comb_from_env_model(model, validate=False)
    dense = _dense(comb)
    got = validate_comb(comb)
    assert got.passes
    _assert_reports_agree(got, validate_comb(dense))
    p_factor = combs._pauli_diag(comb)
    p_dense = combs._pauli_diag(dense)
    assert np.abs(p_factor - p_dense).max() < 1e-12
    got_table, want_table = twirl.pauli_table(comb), twirl.pauli_table(dense)
    assert list(got_table.probs) == list(want_table.probs)
    diff = np.subtract(list(got_table.probs.values()), list(want_table.probs.values()))
    assert np.abs(diff).max() < 1e-12


@pytest.mark.parametrize("n_env", [1, 2])
def test_two_qubit_system_factor_table(n_env):
    rng = np.random.default_rng([111, n_env])
    model = random_env_model(2, n_sys_qubits=2, n_env_qubits=n_env, rng=rng)
    comb = comb_from_env_model(model, validate=False)
    assert combs._thin_factor(comb) is not None
    assert np.abs(combs._pauli_diag(comb) - combs._pauli_diag(_dense(comb))).max() < 1e-12
    _assert_reports_agree(validate_comb(comb), validate_comb(_dense(comb)))


@pytest.mark.parametrize(
    "teeth, signs", [(m, signs) for m in (2, 3, 4) for signs in SIGNS] + [(5, SIGNS[1])]
)
def test_factor_residuals_of_a_non_comb(teeth, signs):
    """A random factor breaks causality at every level by O(1).

    Its residuals and minimum eigenvalue must still match the dense
    check's, so the factored levels measure the same deviation rather
    than read small by construction.  The dense eigensolver's roundoff
    grows with the operator, ||a||^2 here.
    """
    rng = np.random.default_rng([112, teeth, len(set(signs))])
    dim = 2 ** (2 * teeth)
    a = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    comb = Comb(teeth=teeth, d_sys=2, factor=(a, np.array(signs)))
    got = validate_comb(comb)
    want = validate_comb(_dense(comb))
    assert not got.passes
    assert min(want.per_level_residuals) > 1e-3
    _assert_reports_agree(got, want, eig_scale=np.linalg.norm(a) ** 2)


def test_six_tooth_factor_table_matches_dense():
    rng = np.random.default_rng(113)
    comb = comb_from_env_model(random_env_model(6, rng=rng, interaction_strength=0.3), validate=False)
    got = twirl.pauli_table(comb)
    want = twirl.pauli_table(_dense(comb))
    diff = np.subtract(list(got.probs.values()), list(want.probs.values()))
    assert np.abs(diff).max() < 1e-12


def test_factor_comb_never_builds_its_operator(monkeypatch):
    rng = np.random.default_rng(114)
    model = random_env_model(4, rng=rng, interaction_strength=0.3)
    builds = _count_builds(monkeypatch)
    comb = comb_from_env_model(model)
    layers = [random_channel(2, rng=rng) for _ in range(3)]
    rho = random_density_matrix(2, rng)
    validate_comb(comb)
    twirl.pauli_table(comb)
    twirl.twirl_comb(comb)
    apply_comb(comb, layers, rho)
    output_channel(comb, layers)
    assert builds == []

    first = comb.choi_op
    assert builds == [comb]
    assert comb.choi_op is first
    assert builds == [comb]
    a, s = comb.factor
    assert np.abs(first - (a * s) @ a.conj().T).max() == 0.0


def test_dense_stages_build_the_operator_once(monkeypatch):
    """Cancellation needs the dense operator, and a comb derives it once
    however many stages read it; validation and both twirls read the
    factor and build none."""
    rng = np.random.default_rng(115)
    model = random_env_model(3, rng=rng, interaction_strength=0.3)
    builds = _count_builds(monkeypatch)
    comb = comb_from_env_model(model, validate=False)
    layers = [unitary_channel(np.eye(2))] * 2
    rho = random_density_matrix(2, rng)
    obs = np.diag([1.0, -1.0]).astype(complex)
    decomp = pec.decompose_inverse(comb)
    pec.pec_correct_exact(comb, decomp, layers, rho, obs)
    pec.pec_sample(comb, decomp, layers, rho, obs, 10, np.random.default_rng(0))
    assert builds == [comb]

    comb = comb_from_env_model(model, validate=False)
    builds.clear()
    validate_comb(comb)
    twirl.extract_pauli_diag(twirl.twirl_comb(comb))
    twirl.pauli_table(twirl.sampled_twirl(comb, 4, np.random.default_rng(1)))
    assert builds == []


@pytest.mark.parametrize("samples", [1, 7, 64, 200])
def test_sampled_twirl_of_a_factor_builds_no_operator(monkeypatch, samples):
    rng = np.random.default_rng([119, samples])
    comb = comb_from_env_model(random_env_model(3, rng=rng, interaction_strength=0.3), validate=False)
    builds = _count_builds(monkeypatch)
    got = twirl.pauli_table(twirl.sampled_twirl(comb, samples, rng))
    assert builds == []
    assert np.abs(got.vector - twirl.pauli_table(comb).vector).max() < 1e-15


def test_comb_rejects_complex_signs_and_empty_combs():
    a = np.ones((16, 2), dtype=complex)
    with pytest.raises(ValueError, match="signs must be real"):
        Comb(teeth=2, d_sys=2, factor=(a, np.ones(2, dtype=complex)))
    with pytest.raises(ValueError, match="exactly one of .*, got none$"):
        Comb(teeth=2, d_sys=2)


@pytest.fixture(scope="module")
def model8() -> EnvModel:
    """One eight-tooth dilation; its first seven teeth are the M=7 case."""
    return random_env_model(8, rng=np.random.default_rng(116), interaction_strength=0.3)


def test_seven_tooth_stages_stay_small(model8):
    model = _truncated(model8, 7)
    rng = np.random.default_rng(117)
    layers = [random_channel(2, rng=rng) for _ in range(6)]
    rho = random_density_matrix(2, rng)
    dense_bytes = (2**14) ** 2 * 16
    tracemalloc.start()
    try:
        comb = comb_from_env_model(model, validate=False)
        report = validate_comb(comb)
        table = twirl.pauli_table(comb)
        out = apply_comb(comb, layers, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 16
    assert comb._choi_op is None
    assert report.passes
    assert len(table.probs) == 4**7
    assert np.abs(out - simulate_env_model(model, layers, rho)).max() < 1e-12


@pytest.mark.parametrize("teeth", [7, 8])
def test_many_tooth_apply_comb_matches_oracle(model8, teeth):
    model = _truncated(model8, teeth)
    rng = np.random.default_rng([118, teeth])
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(2, rng)
    comb = comb_from_env_model(model, validate=False)
    want = simulate_env_model(model, layers, rho)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12


def test_cli_reaches_seven_teeth(model8, tmp_path, capsys, monkeypatch):
    model = _truncated(model8, 7)
    spec = tmp_path / "env7.json"
    spec.write_text(json.dumps({
        "kind": "env_model",
        "d_sys": 2,
        "payload": {
            "d_env": model.d_env,
            "env_init": encode_matrix(model.env_init),
            "interactions": [encode_matrix(u) for u in model.interactions],
        },
    }))
    builds = _count_builds(monkeypatch)
    for argv in (["validate"], ["twirl"], ["oracle", "--layer", "h"]):
        assert main([*argv[:1], str(spec), *argv[1:]]) == 0
        doc = json.loads(capsys.readouterr().out)
        if argv[0] == "validate":
            assert doc["passes"] and doc["trace"] == pytest.approx(2.0**7, abs=1e-9)
        if argv[0] == "oracle":
            assert doc["max_difference"] < 1e-12
    assert builds == []


# --- the oracle ------------------------------------------------------------


def _oracle_on_wires(model: EnvModel, layers, rho):
    """The oracle's former form: each slot channel by apply_channel_on and
    the environment traced by partial_trace."""
    dims = [model.d_sys, model.d_env]
    state = tensor(rho, model.env_init)
    for m, u in enumerate(model.interactions):
        state = u @ state @ u.conj().T
        if m < len(layers):
            state = apply_channel_on(state, dims, [0], layers[m])
    return partial_trace(state, dims, keep=[0])


def _oracle_by_kraus(model: EnvModel, kraus, rho):
    """The dilated run with each slot as its Kraus operators on the system."""
    eye_env = np.eye(model.d_env)
    state = np.kron(rho, model.env_init)
    for m, u in enumerate(model.interactions):
        state = u @ state @ u.conj().T
        if m < len(kraus):
            state = sum(np.kron(k, eye_env) @ state @ np.kron(k, eye_env).conj().T for k in kraus[m])
    d, e = model.d_sys, model.d_env
    return np.einsum("aebe->ab", state.reshape(d, e, d, e))


def _random_kraus(rng, d, n_ops):
    g = rng.standard_normal((d * n_ops, d)) + 1j * rng.standard_normal((d * n_ops, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d : (i + 1) * d] for i in range(n_ops)]


@pytest.mark.parametrize("teeth", [1, 2, 3, 4])
@pytest.mark.parametrize("n_sys, n_env", [(1, 1), (1, 2), (2, 1)])
def test_oracle_matches_former_form_and_kraus_reference(teeth, n_sys, n_env):
    rng = np.random.default_rng([119, teeth, n_sys, n_env])
    model = random_env_model(teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng)
    d = model.d_sys
    kraus = [_random_kraus(rng, d, int(rng.integers(1, 4))) for _ in range(teeth - 1)]
    layers = [from_kraus(k) for k in kraus]
    rho = random_density_matrix(d, rng)
    got = simulate_env_model(model, layers, rho)
    assert np.abs(got - _oracle_on_wires(model, layers, rho)).max() < 1e-13
    assert np.abs(got - _oracle_by_kraus(model, kraus, rho)).max() < 1e-13


# --- table indexing --------------------------------------------------------


def test_table_comb_indexes_keys_in_any_order():
    rng = np.random.default_rng(120)
    keys = sorted({tuple("IXYZ"[i] for i in rng.integers(4, size=3)) for _ in range(20)})
    order = rng.permutation(len(keys))
    probs = {keys[i]: float(w) for i, w in zip(order, rng.uniform(0.1, 1.0, len(keys)))}
    table = twirl.PauliDiagTable(probs={k: w / sum(probs.values()) for k, w in probs.items()},
                                 teeth=3, n_qubits=1)
    p = np.zeros(4**3)
    for key, w in table.probs.items():
        p[label_index("".join(key))] = w
    got = twirl.comb_from_pauli_table(table).choi_op
    assert np.array_equal(got, Comb(pauli=p, teeth=3, d_sys=2).choi_op)


# --- tooth-by-tooth build --------------------------------------------------

# (teeth, system qubits, environment qubits).
BUILD_SWEEP = [(m, 1, n_env) for m in range(1, 7) for n_env in (1, 2)] + [
    (m, 2, n_env) for m in (1, 2, 3) for n_env in (1, 2)
]


def _assert_build_matches_purified_vector(model: EnvModel):
    """The factor equals the one-vector construction's to 1e-12, with the
    same signs; so does ``choi_op`` wherever it is small enough to form."""
    comb = comb_from_env_model(model, validate=False)
    a, s = comb.factor
    want = purified_factor(model)
    assert a.shape == want.shape
    assert np.abs(a - want).max() < 1e-12
    w = np.linalg.eigvalsh(model.env_init)
    assert np.array_equal(s, np.tile(np.sign(w), model.d_env))
    if a.shape[0] <= 1024:
        dense = (want * s) @ want.conj().T
        assert np.abs(comb.choi_op - dense).max() < 1e-12
    return comb


@pytest.mark.parametrize("strength", [0.3, None])
@pytest.mark.parametrize("teeth, n_sys, n_env", BUILD_SWEEP)
def test_tooth_by_tooth_build_matches_purified_vector(teeth, n_sys, n_env, strength):
    rng = np.random.default_rng([121, teeth, n_sys, n_env, int(10 * (strength or 0))])
    model = random_env_model(
        teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng, interaction_strength=strength
    )
    _assert_build_matches_purified_vector(model)


@pytest.mark.parametrize("n_env", [1, 2])
def test_tooth_by_tooth_build_keeps_a_negative_weight(n_env):
    rng = np.random.default_rng([122, n_env])
    model = random_env_model(4, n_env_qubits=n_env, rng=rng, interaction_strength=0.3)
    de = model.d_env
    w = np.full(de, 1.0 / (de - 1))
    w[0], w[-1] = w[0] + 1e-10, -1e-10
    model = EnvModel(d_sys=2, d_env=de, env_init=np.diag(w), interactions=model.interactions)
    comb = _assert_build_matches_purified_vector(model)
    assert -1.0 in comb.factor[1]
    assert validate_comb(comb).passes
