import numpy as np
import pytest

from dense_reference import apply_channel_on, conjugate_on, max_entangled, permutation_matrix
from qcombs.channels import (
    apply,
    compose,
    depolarizing_channel,
    from_kraus,
    identity_channel,
    random_channel,
    random_density_matrix,
    random_unitary,
    unitary_channel,
)
from qcombs.combs import (
    Comb,
    EnvModel,
    apply_comb,
    choi_channel,
    comb_chi,
    comb_from_env_model,
    markovian_comb,
    output_channel,
    random_env_model,
    simulate_env_model,
    slot_channel,
    validate_comb,
)
from qcombs.linalg import (
    PsdReport,
    partial_trace,
    permute_wires,
    psd_check_factored,
    tensor,
)
from qcombs.pauli import pauli_basis
from qcombs.twirl import PauliDiagTable, env_model_from_pauli_table


def test_comb_shape_validation():
    with pytest.raises(ValueError, match="does not match"):
        Comb(choi_op=np.eye(8), teeth=2, d_sys=2)


@pytest.mark.parametrize(
    "a, s",
    [(np.ones((8, 2)), np.ones(2)), (np.ones((16, 2)), np.ones(3)), (np.ones(16), np.ones(1))],
    ids=["rows", "signs", "vector"],
)
def test_comb_factor_shape_validation(a, s):
    with pytest.raises(ValueError, match="factor shapes"):
        Comb(choi_op=np.eye(16), teeth=2, d_sys=2, factor=(a, s))


def test_comb_takes_every_store_as_a_nested_list():
    a = np.arange(32.0).reshape(16, 2) * (1 + 1j)
    s = np.array([1.0, -1.0])
    listed = Comb(teeth=2, d_sys=2, factor=(a.tolist(), s.tolist()))
    assert listed.factor[0].shape == (16, 2) and listed.factor[1].shape == (2,)
    assert np.array_equal(listed.choi_op, Comb(teeth=2, d_sys=2, factor=(a, s)).choi_op)
    dense = Comb(choi_op=(np.eye(4) / 2).tolist(), teeth=1, d_sys=2)
    assert np.array_equal(dense.choi_op, np.eye(4) / 2) and validate_comb(dense).passes
    pauli = Comb(teeth=1, d_sys=2, pauli=[1.0, 0, 0, 0])
    assert np.array_equal(pauli.pauli, [1.0, 0, 0, 0]) and validate_comb(pauli).passes
    with pytest.raises(ValueError, match="real numbers"):
        Comb(teeth=1, d_sys=2, pauli=[1.0, 0, 0])


@pytest.mark.parametrize("where, bad", [("a", np.nan), ("a", np.inf), ("s", np.nan)])
def test_comb_refuses_a_factor_that_is_not_finite(where, bad):
    model = random_env_model(3, rng=np.random.default_rng(7))
    a, s = comb_from_env_model(model, validate=False).factor
    a, s = a.copy(), s.copy()
    (a if where == "a" else s)[0] = bad
    with pytest.raises(ValueError, match="comb factor entries must be finite"):
        Comb(teeth=3, d_sys=2, factor=(a, s))


@pytest.mark.parametrize(
    "stores, what",
    [
        ({"choi_op": np.full((4, 4), np.nan)}, "operator"),
        ({"choi_op": np.diag([np.inf, 0.0, 0.0, 1.0])}, "operator"),
        ({"pauli": [np.nan, 0.0, 0.0, 1.0]}, "Pauli weight"),
        ({"chi": np.diag([1.0, 0.0, 0.0, -np.inf])}, "process matrix"),
    ],
    ids=["operator_nan", "operator_inf", "pauli_nan", "chi_inf"],
)
def test_comb_refuses_every_store_that_is_not_finite(stores, what):
    """No store reaches validate_comb with a NaN, where eigvalsh would fail
    or a NaN residual would read as a verdict."""
    with pytest.raises(ValueError, match=f"comb {what} entries must be finite"):
        validate_comb(Comb(teeth=1, d_sys=2, **stores))


@pytest.mark.parametrize("eps, ok", [(5e-6, False), (1e-12, True)])
def test_env_model_unitarity_tolerance_is_absolute(eps, ok):
    """U^dag U = diag(1 + eps, 1, 1, 1): 5e-6 is inside numpy's default
    relative tolerance but not within the absolute 1e-9."""
    u = np.diag([np.sqrt(1 + eps), 1.0, 1.0, 1.0])

    def build():
        return EnvModel(d_sys=2, d_env=2, env_init=np.eye(2) / 2, interactions=(u,))

    if ok:
        assert validate_comb(comb_from_env_model(build(), validate=False)).passes
    else:
        with pytest.raises(ValueError, match="not unitary"):
            build()


def test_env_model_validation():
    u = random_unitary(4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="unit trace"):
        EnvModel(d_sys=2, d_env=2, env_init=np.eye(2), interactions=(u,))
    with pytest.raises(ValueError, match="not unitary"):
        EnvModel(
            d_sys=2, d_env=2, env_init=np.eye(2) / 2, interactions=(np.ones((4, 4)),)
        )


@pytest.mark.parametrize("teeth,d_env", [(1, 2), (2, 2), (2, 4), (3, 2)])
def test_comb_matches_direct_simulation(teeth, d_env):
    rng = np.random.default_rng(teeth * 10 + d_env)
    n_env = d_env.bit_length() - 1
    model = random_env_model(teeth, n_env_qubits=n_env, rng=rng)
    comb = comb_from_env_model(model)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(2, rng)
    got = apply_comb(comb, layers, rho)
    want = simulate_env_model(model, layers, rho)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("strength", [0.1, 0.6, None])
@pytest.mark.parametrize("n_env", [1, 2])
@pytest.mark.parametrize("teeth", [1, 2, 3, 4])
def test_closed_comb_sweep_against_oracle(teeth, n_env, strength):
    """apply_comb and output_channel of a built comb against direct simulation.

    ``strength=None`` draws Haar interactions.  The output channel is
    compared through its Choi matrix, simulated basis element by basis
    element, so it is checked on every input and not just one state.
    """
    rng = np.random.default_rng([teeth, n_env, int(100 * (strength or 0))])
    model = random_env_model(teeth, n_env_qubits=n_env, rng=rng, interaction_strength=strength)
    comb = comb_from_env_model(model)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    rho = random_density_matrix(2, rng)
    want = simulate_env_model(model, layers, rho)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12
    oracle_choi = sum(
        tensor(simulate_env_model(model, layers, unit), unit)
        for unit in (np.outer(a, b) for a in np.eye(2) for b in np.eye(2))
    )
    assert np.abs(output_channel(comb, layers).choi - oracle_choi).max() < 1e-12


def test_env_model_rejects_unphysical_environment_state():
    cx = tensor(np.eye(2), np.diag([1.0, 0.0])) + tensor(
        np.array([[0, 1], [1, 0]]), np.diag([0.0, 1.0])
    )
    for env_init in (np.diag([2.0, -1.0]), np.array([[0.5, 0.5], [0.0, 0.5]])):
        with pytest.raises(ValueError, match="environment state"):
            EnvModel(d_sys=2, d_env=2, env_init=env_init, interactions=(cx,))


def _dense_comb_reference(model):
    """The comb by evolving the full bell-pairs-plus-environment density matrix.

    Every tooth's pair and ``env_init`` form one (d^(2M) d_env)^2 matrix;
    each interaction conjugates it on (out_m, environment), and the
    environment is traced out at the end.
    """
    d, de, m_teeth = model.d_sys, model.d_env, model.teeth
    bell = np.outer(max_entangled(d), max_entangled(d).conj())
    full = tensor(*([bell] * m_teeth), model.env_init)
    dims = [d] * (2 * m_teeth) + [de]
    for m, u in enumerate(model.interactions):
        full = conjugate_on(full, dims, [2 * m + 1, 2 * m_teeth], u)
    return partial_trace(full, dims, keep=range(2 * m_teeth))


@pytest.mark.parametrize("strength", [0.1, 0.6, None])
@pytest.mark.parametrize("n_env", [1, 2])
@pytest.mark.parametrize("teeth", [1, 2, 3, 4])
def test_purified_comb_matches_dense_reference(teeth, n_env, strength):
    rng = np.random.default_rng([teeth, n_env, int(100 * (strength or 0)), 5])
    model = random_env_model(teeth, n_env_qubits=n_env, rng=rng, interaction_strength=strength)
    got = comb_from_env_model(model).choi_op
    assert np.abs(got - _dense_comb_reference(model)).max() < 1e-12


def _with_env_init(model, env_init):
    return EnvModel(
        d_sys=model.d_sys, d_env=model.d_env, env_init=env_init, interactions=model.interactions
    )


def _special_env_models():
    rng = np.random.default_rng(55)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    pure = _with_env_init(random_env_model(3, n_env_qubits=2, rng=rng), np.outer(psi, psi.conj()))
    table = PauliDiagTable(
        probs={
            ("I", "I", "I", "I"): 0.8,
            ("X", "I", "Z", "I"): 0.06,
            ("Z", "Z", "I", "Y"): 0.05,
            ("I", "Y", "Y", "X"): 0.05,
            ("Y", "X", "I", "Z"): 0.04,
        },
        teeth=4,
        n_qubits=1,
    )
    pointer = env_model_from_pauli_table(table)
    # An eigenvalue below zero within EnvModel's tolerance: only signed
    # weights reproduce this env_init to 1e-12, clipped ones miss by ~1e-10.
    signed = _with_env_init(random_env_model(3, rng=rng), np.diag([1 + 1e-10, -1e-10]))
    # Two-qubit system, one tooth: r = 5**2 columns are not fewer than the
    # D = 4**2 rows, so validation takes the dense path.
    probs = {("II",): 0.9, ("XZ",): 0.03, ("YI",): 0.03, ("ZZ",): 0.02, ("IX",): 0.02}
    pointer_one_tooth = env_model_from_pauli_table(PauliDiagTable(probs=probs, teeth=1, n_qubits=2))
    return {
        "pure": pure,
        "pointer": pointer,
        "signed": signed,
        "pointer_one_tooth": pointer_one_tooth,
    }


@pytest.mark.parametrize("case", ["pure", "pointer", "signed"])
def test_purified_comb_special_environment_states(case):
    model = _special_env_models()[case]
    comb = comb_from_env_model(model)
    assert np.abs(comb.choi_op - _dense_comb_reference(model)).max() < 1e-12
    rng = np.random.default_rng(9)
    layers = [random_channel(2, rng=rng) for _ in range(model.teeth - 1)]
    rho = random_density_matrix(2, rng)
    want = simulate_env_model(model, layers, rho)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12


def _assert_validation_agrees_with_dense(comb):
    """Validate ``comb`` and a copy without its factor; return both reports."""
    got = validate_comb(comb)
    want = validate_comb(Comb(choi_op=comb.choi_op, teeth=comb.teeth, d_sys=comb.d_sys))
    assert (got.passes, got.psd_ok) == (want.passes, want.psd_ok)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) < 1e-12
    diff = np.subtract(got.per_level_residuals, want.per_level_residuals)
    assert np.abs(diff).max() < 1e-12
    return got, want


@pytest.mark.parametrize("strength", [0.1, 0.6, None])
@pytest.mark.parametrize("n_env", [1, 2])
@pytest.mark.parametrize("teeth", [1, 2, 3, 4, 5])
def test_factored_validation_matches_dense(teeth, n_env, strength):
    rng = np.random.default_rng([teeth, n_env, int(100 * (strength or 0)), 6])
    model = random_env_model(teeth, n_env_qubits=n_env, rng=rng, interaction_strength=strength)
    comb = comb_from_env_model(model, validate=False)
    got, want = _assert_validation_agrees_with_dense(comb)
    assert got.passes
    a, _ = comb.factor
    if a.shape[1] < a.shape[0]:
        # A full-rank env_init of these seeds leaves the small spectrum
        # positive, so the comb's null space sets the minimum exactly.
        assert got.min_eigenvalue == 0.0
    else:
        assert got == want


@pytest.mark.parametrize("case", ["pure", "pointer", "signed", "pointer_one_tooth"])
def test_factored_validation_special_environment_states(case):
    comb = comb_from_env_model(_special_env_models()[case], validate=False)
    got, want = _assert_validation_agrees_with_dense(comb)
    assert got.passes
    if case == "pointer_one_tooth":
        assert comb.factor[0].shape == (16, 25)
        assert got == want
    if case == "signed":
        # env_init's eigenvalue -1e-10 must come through, not be clipped.
        assert got.min_eigenvalue < -1e-11


def _qr_route(a, s, tol=1e-9):
    """The positivity check of a thin factor through its QR, whatever its signs."""
    r = np.linalg.qr(a, mode="r")
    small = (r * s) @ r.conj().T
    lo = min(0.0, float(np.linalg.eigvalsh(0.5 * (small + small.conj().T))[0]))
    return PsdReport.of(lo, float(np.trace(small).real), tol)


# Two system qubits stop at four teeth: at five the factor alone is 256 MB.
@pytest.mark.parametrize("teeth, n_sys", [(m, 1) for m in range(1, 6)] + [(m, 2) for m in range(1, 5)])
@pytest.mark.parametrize("n_env", [1, 2])
def test_sign_rule_matches_the_qr_route(teeth, n_sys, n_env):
    for seed in range(3):
        rng = np.random.default_rng([teeth, n_sys, n_env, seed, 25])
        model = random_env_model(teeth, n_sys_qubits=n_sys, n_env_qubits=n_env, rng=rng)
        comb = comb_from_env_model(model, validate=False)
        a, s = comb.factor
        assert (s >= 0).all()
        if a.shape[1] >= a.shape[0]:
            continue
        got, want = psd_check_factored(a, s), _qr_route(a, s)
        assert got.min_eigenvalue == 0.0 and got.is_psd == want.is_psd
        assert abs(got.min_eigenvalue - want.min_eigenvalue) < 1e-12
        assert validate_comb(comb).min_eigenvalue == 0.0


def test_nonnegative_signs_are_validated_with_no_qr(monkeypatch):
    model = random_env_model(3, rng=np.random.default_rng(11))
    comb = comb_from_env_model(model, validate=False)
    signed = comb_from_env_model(_special_env_models()["signed"], validate=False)
    assert (comb.factor[1] >= 0).all() and (signed.factor[1] < 0).any()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    report = validate_comb(comb)
    assert report.passes and report.min_eigenvalue == 0.0
    with pytest.raises(AssertionError, match="qr called"):
        validate_comb(signed)


@pytest.mark.parametrize("strength", [0.3, None])
def test_five_tooth_comb_against_oracle(strength):
    rng = np.random.default_rng([5, int(100 * (strength or 0))])
    model = random_env_model(5, rng=rng, interaction_strength=strength)
    comb = comb_from_env_model(model, validate=False)
    layers = [random_channel(2, rng=rng) for _ in range(4)]
    rho = random_density_matrix(2, rng)
    want = simulate_env_model(model, layers, rho)
    assert np.abs(apply_comb(comb, layers, rho) - want).max() < 1e-12
    oracle_choi = sum(
        tensor(simulate_env_model(model, layers, unit), unit)
        for unit in (np.outer(a, b) for a in np.eye(2) for b in np.eye(2))
    )
    assert np.abs(output_channel(comb, layers).choi - oracle_choi).max() < 1e-12


def test_trivial_environment_reduces_to_markovian():
    rng = np.random.default_rng(1)
    us = [random_unitary(2, rng) for _ in range(2)]
    model = EnvModel(
        d_sys=2,
        d_env=1,
        env_init=np.eye(1),
        interactions=tuple(us),
    )
    comb = comb_from_env_model(model)
    mk = markovian_comb([unitary_channel(u) for u in us])
    assert np.allclose(comb.choi_op, mk.choi_op)


def test_markovian_comb_refuses_an_empty_list():
    with pytest.raises(ValueError, match="got an empty list"):
        markovian_comb([])


def test_markovian_comb_matches_sequential_channels():
    rng = np.random.default_rng(2)
    teeth = [random_channel(2, rng=rng) for _ in range(3)]
    layers = [random_channel(2, rng=rng) for _ in range(2)]
    rho = random_density_matrix(2, rng)
    comb = markovian_comb(teeth)
    got = apply_comb(comb, layers, rho)
    want = rho
    for i, tooth in enumerate(teeth):
        want = apply(tooth, want)
        if i < len(layers):
            want = apply(layers[i], want)
    assert np.abs(got - want).max() < 1e-12


def test_single_tooth_comb_is_the_channel():
    rng = np.random.default_rng(3)
    ch = random_channel(2, rng=rng)
    comb = markovian_comb([ch])
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_comb(comb, [], rho), apply(ch, rho))
    assert np.allclose(choi_channel(comb).choi, ch.choi)


def test_apply_comb_argument_checks():
    comb = markovian_comb([identity_channel(2), identity_channel(2)])
    with pytest.raises(ValueError, match="slot channels"):
        apply_comb(comb, [], np.eye(2) / 2)
    with pytest.raises(ValueError, match="dimension"):
        apply_comb(comb, [identity_channel(3)], np.eye(2) / 2)
    with pytest.raises(ValueError, match="input state shape"):
        apply_comb(comb, [identity_channel(2)], np.eye(3) / 3)


def test_output_channel_consistent_with_apply_comb():
    rng = np.random.default_rng(4)
    model = random_env_model(2, rng=rng)
    comb = comb_from_env_model(model)
    layer = random_channel(2, rng=rng)
    ch = output_channel(comb, [layer])
    ch.validate()
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply(ch, rho), apply_comb(comb, [layer], rho))


def test_output_channel_markovian_composition():
    rng = np.random.default_rng(5)
    t1, t2 = (random_channel(2, rng=rng) for _ in range(2))
    v = random_channel(2, rng=rng)
    comb = markovian_comb([t1, t2])
    got = output_channel(comb, [v])
    want = compose(t2, compose(v, t1))
    assert np.allclose(got.choi, want.choi)


def _choi_channel_by_swap_circuit(model):
    """Channel form built from a plain circuit, no comb machinery.

    All tooth inputs are laid out as parallel wires; a running SWAP
    brings each one to the active position before its interaction.  The
    outputs end up cyclically shifted and are permuted back.
    """
    d, de, m = model.d_sys, model.d_env, model.teeth
    dims = [d] * m + [de]
    d_tot = d**m

    def evolve(rho_sys):
        state = tensor(rho_sys, model.env_init)
        for k in range(m):
            if k > 0:
                perm = list(range(m + 1))
                perm[0], perm[k] = perm[k], perm[0]
                swap = permutation_matrix(dims, perm)
                state = swap @ state @ swap.conj().T
            u_full = tensor(model.interactions[k], np.eye(d ** max(m - 1, 0)))
            # interaction acts on (wire0, env); bring env next to wire0
            order = [0, m] + list(range(1, m))
            to = permutation_matrix(dims, order)
            state = to.conj().T @ u_full @ to @ state @ to.conj().T @ u_full.conj().T @ to
        return partial_trace(state, dims, keep=range(m))

    choi = np.zeros((d_tot * d_tot, d_tot * d_tot), dtype=complex)
    for i in range(d_tot):
        for j in range(d_tot):
            unit = np.zeros((d_tot, d_tot), dtype=complex)
            unit[i, j] = 1.0
            out = evolve(unit)
            choi += tensor(out, unit)
    # outputs sit as (out_M, out_1, ..., out_{M-1}); rotate register order back
    back = list(range(1, m)) + [0]
    choi = permute_wires(choi, [d] * m + [d] * m, back + list(range(m, 2 * m)))
    return choi


@pytest.mark.parametrize("teeth", [2, 3])
def test_choi_channel_against_swap_circuit(teeth):
    rng = np.random.default_rng(6 + teeth)
    model = random_env_model(teeth, rng=rng)
    comb = comb_from_env_model(model)
    got = choi_channel(comb).choi
    want = _choi_channel_by_swap_circuit(model)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("teeth", [2, 3])
def test_slot_channel_is_cyclic_relabel(teeth):
    rng = np.random.default_rng(8 + teeth)
    model = random_env_model(teeth, rng=rng)
    comb = comb_from_env_model(model)
    d = comb.d_sys
    cyc = permutation_matrix([d] * teeth, [teeth - 1] + list(range(teeth - 1)))
    via_compose = compose(unitary_channel(cyc), choi_channel(comb))
    assert np.abs(slot_channel(comb).choi - via_compose.choi).max() < 1e-12


def test_slot_channel_gluing_reconstructs_dynamics():
    # Feeding the slot form with the Choi state of the slot content and
    # projecting the loose pair onto the unnormalized entangled state
    # must reproduce the closed dynamics.
    rng = np.random.default_rng(10)
    model = random_env_model(2, rng=rng)
    comb = comb_from_env_model(model)
    v = random_channel(2, rng=rng)
    rho = random_density_matrix(2, rng)
    d = comb.d_sys
    s = slot_channel(comb)
    phi = np.outer(max_entangled(d), max_entangled(d).conj())
    x = tensor(rho, v.choi)
    y = apply_channel_on(x, [d, d, d], [0, 1], s)
    glued = partial_trace(y @ tensor(np.eye(d), phi), [d, d, d], keep=[0])
    assert np.abs(glued - apply_comb(comb, [v], rho)).max() < 1e-12


def test_comb_choi_state_trace():
    rng = np.random.default_rng(11)
    for teeth in (1, 2, 3):
        model = random_env_model(teeth, rng=rng)
        comb = comb_from_env_model(model)
        trace = np.trace(choi_channel(comb).choi).real
        assert abs(trace - 2**teeth) < 1e-9


def test_choi_channel_is_cptp():
    rng = np.random.default_rng(12)
    comb = comb_from_env_model(random_env_model(2, rng=rng))
    choi_channel(comb).validate()
    slot_channel(comb).validate()


def test_chi_translation_two_teeth():
    # Every process matrix element pairs a Pauli before the slot content
    # with one after it: row (i1, i2) and column (k1, k2) contribute
    # G_i2 V(G_i1 rho G_k1) G_k2.
    rng = np.random.default_rng(13)
    model = random_env_model(2, rng=rng)
    comb = comb_from_env_model(model)
    chi = comb_chi(comb)
    v = random_channel(2, rng=rng)
    rho = random_density_matrix(2, rng)
    g = pauli_basis(1)
    out = np.zeros((2, 2), dtype=complex)
    for i1 in range(4):
        for i2 in range(4):
            for k1 in range(4):
                for k2 in range(4):
                    coeff = chi[4 * i1 + i2, 4 * k1 + k2]
                    if abs(coeff) < 1e-16:
                        continue
                    out += coeff * g[i2] @ apply(v, g[i1] @ rho @ g[k1]) @ g[k2]
    assert np.abs(out - apply_comb(comb, [v], rho)).max() < 1e-10


def test_chi_translation_single_tooth():
    rng = np.random.default_rng(14)
    comb = markovian_comb([random_channel(2, rng=rng)])
    chi = comb_chi(comb)
    rho = random_density_matrix(2, rng)
    g = pauli_basis(1)
    out = sum(
        chi[i, k] * g[i] @ rho @ g[k] for i in range(4) for k in range(4)
    )
    assert np.abs(out - apply_comb(comb, [], rho)).max() < 1e-12


def test_validate_accepts_env_model_combs():
    rng = np.random.default_rng(15)
    comb = comb_from_env_model(random_env_model(2, rng=rng), validate=False)
    report = validate_comb(comb)
    assert report.passes
    assert report.psd_ok
    assert all(r < 1e-10 for r in report.per_level_residuals)
    assert "passes=True" in str(report)


def test_validate_rejects_trace_decreasing_tooth():
    # The lost trace weight propagates down the hierarchy and shows up
    # as a scaling violation at the bottom level.
    half = from_kraus([np.eye(2) / np.sqrt(2)], require_tp=False)
    comb = markovian_comb([identity_channel(2), half])
    report = validate_comb(comb)
    assert not report.passes
    assert report.psd_ok
    assert report.per_level_residuals[0] > 1e-3


def test_validate_rejects_rescaled_comb():
    ident = markovian_comb([identity_channel(2), identity_channel(2)])
    scaled = Comb(choi_op=0.5 * ident.choi_op, teeth=2, d_sys=2)
    assert not validate_comb(scaled).passes


def test_validate_rejects_backwards_signalling():
    # Wire the second input to the first output: positive, right trace,
    # but information would flow into the past.
    ident = markovian_comb([identity_channel(2), identity_channel(2)])
    acausal = permute_wires(ident.choi_op, [2] * 4, [0, 3, 2, 1])
    comb = Comb(choi_op=acausal, teeth=2, d_sys=2)
    assert abs(np.trace(comb.choi_op).real - 4.0) < 1e-12
    report = validate_comb(comb)
    assert not report.passes
    assert not all(r < 1e-9 for r in report.per_level_residuals)


def test_validate_rejects_non_positive():
    ident = markovian_comb([identity_channel(2)])
    bent = ident.choi_op - 0.5 * np.diag([0, 1, 1, 0.0])
    report = validate_comb(Comb(choi_op=bent, teeth=1, d_sys=2))
    assert not report.psd_ok
    assert not report.passes


def test_random_env_model_seeded_and_weak_limit():
    m1 = random_env_model(2, rng=np.random.default_rng(16))
    m2 = random_env_model(2, rng=np.random.default_rng(16))
    for u1, u2 in zip(m1.interactions, m2.interactions):
        assert np.allclose(u1, u2)
    weak = random_env_model(2, rng=np.random.default_rng(17), interaction_strength=0.0)
    comb = comb_from_env_model(weak)
    ident = markovian_comb([identity_channel(2), identity_channel(2)])
    assert np.abs(comb.choi_op - ident.choi_op).max() < 1e-12


def test_depolarizing_comb_validates():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    assert validate_comb(comb).passes
