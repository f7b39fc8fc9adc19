"""Tests for the quasi-probability noise cancellation."""

import gc
import itertools
import re
import weakref
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import completely_depolarizing, solved_alpha
from qcombs.channels import (
    Channel,
    apply,
    compose,
    depolarizing_channel,
    from_kraus,
    identity_channel,
    pauli_channel,
    random_channel,
    random_density_matrix,
    unitary_channel,
)
from qcombs import pec
from qcombs.combs import (
    Comb,
    apply_comb,
    comb_from_env_model,
    markovian_comb,
    random_env_model,
)
from qcombs.linalg import permute_wires
from qcombs.pauli import pauli_basis, pauli_matrix, tooth_ptm
from qcombs.pec import (
    SINGULAR_VALUE_FLOOR,
    BasisOpSet,
    SingularNoiseError,
    _reset_channel,
    _rotation,
    _STATES,
    _term_values,
    decompose_inverse,
    default_basis,
    pec_correct_exact,
    pec_sample,
    verify_basis_completeness,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def ideal_value(layers, rho, observable):
    cur = rho
    for layer in layers:
        cur = apply(layer, cur)
    return np.trace(observable @ cur).real


# ---------------------------------------------------------------------------
# operation basis


def test_default_basis_is_complete():
    basis = default_basis(1)
    assert len(basis) == 16
    assert len(set(basis.names)) == 16
    report = verify_basis_completeness(basis)
    assert report.rank == 16
    assert report.condition_number < 20


def test_default_basis_two_qubits():
    basis = default_basis(2)
    assert len(basis) == 256
    assert "id,x" in basis.names
    report = verify_basis_completeness(basis)
    assert report.rank == 256


def test_unitaries_and_resets_alone_are_rank_deficient():
    # Ten single-qubit unitaries plus trace-preserving resets to all six
    # axis states stall at rank 13: every trace-preserving map fixes the
    # first transfer-matrix row, which freezes three directions.  This is
    # why the shipped basis trades three resets for projective selections.
    ops = [
        unitary_channel(np.eye(2)),
        unitary_channel(X),
        unitary_channel(np.array([[0, -1j], [1j, 0]], dtype=complex)),
        unitary_channel(Z),
        unitary_channel(_rotation([1, 0, 0])),
        unitary_channel(_rotation([0, 1, 0])),
        unitary_channel(_rotation([0, 0, 1])),
        unitary_channel(_rotation([0, 1, 1])),
        unitary_channel(_rotation([1, 0, 1])),
        unitary_channel(_rotation([1, 1, 0])),
    ] + [_reset_channel(_STATES[k]) for k in ("zero", "one", "plus", "minus", "plus_i", "minus_i")]
    basis = BasisOpSet(ops=tuple(ops), names=tuple(str(i) for i in range(16)), n_qubits=1)
    with pytest.raises(ValueError, match="spans only 13"):
        verify_basis_completeness(basis)


def test_basis_rejects_unphysical_operations():
    bad_choi = np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex)
    non_cp = BasisOpSet(
        ops=(Channel(choi=bad_choi, d_in=2, d_out=2),),
        names=("bad",),
        n_qubits=1,
    )
    with pytest.raises(ValueError, match="not completely positive"):
        verify_basis_completeness(non_cp)

    amplified = from_kraus([np.sqrt(2) * np.eye(2)], require_tp=False)
    too_big = BasisOpSet(ops=(amplified,), names=("big",), n_qubits=1)
    with pytest.raises(ValueError, match="increases the trace"):
        verify_basis_completeness(too_big)


def test_basis_op_set_validation():
    with pytest.raises(ValueError, match="one name per"):
        BasisOpSet(ops=(identity_channel(2),), names=(), n_qubits=1)
    with pytest.raises(ValueError, match="dimension"):
        BasisOpSet(ops=(identity_channel(4),), names=("id",), n_qubits=1)


# ---------------------------------------------------------------------------
# decomposition structure


def test_identity_comb_decomposes_to_itself():
    comb = markovian_comb([identity_channel(2), identity_channel(2)])
    decomp = decompose_inverse(comb)
    assert decomp.gamma == 1.0
    assert np.count_nonzero(decomp.alpha) == 1
    assert decomp.alpha[0, 0] == pytest.approx(1.0)
    assert decomp.residual < 1e-12


def test_pauli_unitary_comb_has_unit_gamma():
    # X then Z noise is undone by X then Z again, a single pattern with
    # weight one, so cancellation is free.
    comb = markovian_comb([unitary_channel(X), unitary_channel(Z)])
    decomp = decompose_inverse(comb)
    assert decomp.gamma == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(decomp.alpha) == 1
    names = decomp.basis.names
    idx = np.argwhere(decomp.alpha != 0.0)[0]
    assert (names[idx[0]], names[idx[1]]) == ("x", "z")


def test_depolarizing_gamma_frozen():
    one = decompose_inverse(markovian_comb([depolarizing_channel(0.2)]))
    assert one.gamma == pytest.approx(1.375, abs=1e-12)
    assert np.count_nonzero(one.alpha) == 4

    two = decompose_inverse(
        markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    )
    assert two.gamma == pytest.approx(1.890625, abs=1e-12)
    assert np.count_nonzero(two.alpha) == 16


def test_uncorrelated_noise_gives_product_alpha():
    one = decompose_inverse(markovian_comb([depolarizing_channel(0.2)]))
    two = decompose_inverse(
        markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    )
    outer = np.multiply.outer(one.alpha, one.alpha)
    assert np.allclose(two.alpha, outer, atol=1e-12)


def test_alpha_shape_tracks_teeth():
    comb = markovian_comb([depolarizing_channel(0.1)] * 3)
    decomp = decompose_inverse(comb)
    assert decomp.alpha.shape == (16, 16, 16)
    assert decomp.teeth == 3


def test_gamma_never_below_one():
    rng = np.random.default_rng(41)
    for _ in range(10):
        model = random_env_model(teeth=2, rng=rng, interaction_strength=0.4)
        decomp = decompose_inverse(comb_from_env_model(model))
        assert decomp.gamma >= 1.0 - 1e-12


def test_residual_is_small():
    rng = np.random.default_rng(43)
    model = random_env_model(teeth=2, rng=rng, interaction_strength=0.5)
    decomp = decompose_inverse(comb_from_env_model(model))
    assert decomp.residual < 1e-10


def test_singular_noise_is_rejected():
    with pytest.raises(SingularNoiseError):
        decompose_inverse(markovian_comb([completely_depolarizing(2)]))
    with pytest.raises(SingularNoiseError):
        decompose_inverse(
            markovian_comb([depolarizing_channel(1.0 - 1e-12), identity_channel(2)])
        )


def test_zero_transfer_matrix_is_singular():
    comb = Comb(choi_op=np.zeros((16, 16)), teeth=2, d_sys=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularNoiseError, match="noise transfer matrix is singular"):
            decompose_inverse(comb)


@pytest.mark.parametrize("delta", np.logspace(-6, -13, 29))
def test_singular_noise_gate_matches_the_svd_test(delta):
    # The ratio of extreme singular values is delta, so the sweep runs
    # through all three cases: the solve bound settles it (delta >= 1e-8),
    # the SVD passes a doubtful bound, and the SVD refuses.
    comb = markovian_comb([depolarizing_channel(1 - delta), identity_channel(2)])
    svals = np.linalg.svd(tooth_ptm(comb.choi_op, 2, 2), compute_uv=False)
    if svals[-1] <= SINGULAR_VALUE_FLOOR * svals[0]:
        message = f"noise transfer matrix is singular (smallest singular value {svals[-1]:.3e})"
        with pytest.raises(SingularNoiseError, match=f"^{re.escape(message)}$"):
            decompose_inverse(comb)
    else:
        decomp = decompose_inverse(comb)
        assert decomp.ptm_condition_number == float(svals[0] / svals[-1])


def test_non_finite_solve_falls_back_to_the_svd():
    # Subnormal pivots: the solve raises nothing but returns NaN and inf.
    r = np.array([[1.0, 1.0, 1.0], [0.0, 1e-310, 1.0], [0.0, 0.0, 1e-310]])
    assert not np.isfinite(np.linalg.norm(np.linalg.solve(r, np.eye(3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularNoiseError, match="smallest singular value 0.000e"):
            pec._checked_inverse(r)


@pytest.mark.parametrize("teeth", [1, 2, 3, 4])
def test_condition_number_is_the_svd_ratio(teeth):
    rng = np.random.default_rng([19, teeth])
    model = random_env_model(teeth, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model, validate=False)
    decomp = decompose_inverse(comb)
    ptm = tooth_ptm(comb.choi_op, teeth, 2)
    svals = np.linalg.svd(ptm, compute_uv=False)
    assert decomp.ptm_condition_number == float(svals[0] / svals[-1])
    assert np.array_equal(decomp.ptm, ptm)
    assert not decomp.ptm.flags.writeable


def test_well_conditioned_decomposition_runs_no_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(pec.np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(1900)
    model = random_env_model(3, rng=rng, interaction_strength=0.3)
    decomp = decompose_inverse(comb_from_env_model(model, validate=False))
    assert len(calls) == 0
    first = decomp.ptm_condition_number
    assert len(calls) == 1
    assert decomp.ptm_condition_number == first
    assert len(calls) == 1


def test_basis_for_other_qubit_count_is_rejected():
    comb = markovian_comb([depolarizing_channel(0.2)])
    with pytest.raises(ValueError, match="basis acts on 2 qubit.* comb's system has 1"):
        decompose_inverse(comb, basis=default_basis(2))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("teeth, n_sys", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_alpha_matches_per_axis_solves(teeth, n_sys, seed):
    rng = np.random.default_rng([62, teeth, n_sys, seed])
    model = random_env_model(teeth, n_sys_qubits=n_sys, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model, validate=False)
    decomp = decompose_inverse(comb)
    assert np.abs(decomp.alpha - solved_alpha(comb, decomp.basis)).max() < 1e-12
    assert decomp.residual <= 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_basis_stacks_are_cached_and_read_only(n_qubits):
    basis = default_basis(n_qubits)
    for name in ("ptm_dual", "choi_stack", "superop_stack"):
        arr = getattr(basis, name)
        assert arr is getattr(basis, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    k = len(basis)
    assert np.abs(basis.ptm_dual @ basis.ptm_stack.T - np.eye(k)).max() < 1e-12
    assert np.array_equal(basis.choi_stack, [op.choi for op in basis.ops])


def test_custom_basis_gets_its_own_dual():
    default = default_basis(1)
    custom = BasisOpSet(ops=default.ops[::-1], names=default.names[::-1], n_qubits=1)
    assert custom.ptm_dual is not default.ptm_dual
    assert np.abs(custom.ptm_dual - default.ptm_dual[::-1]).max() < 1e-12
    rng = np.random.default_rng(63)
    comb = comb_from_env_model(random_env_model(2, rng=rng, interaction_strength=0.3))
    got = decompose_inverse(comb, basis=custom).alpha
    assert np.abs(got - decompose_inverse(comb).alpha[::-1, ::-1]).max() < 1e-12


def test_non_qubit_comb_is_rejected():
    comb = markovian_comb([identity_channel(3)])
    with pytest.raises(ValueError, match="qubit"):
        decompose_inverse(comb)


def test_explicit_basis_is_used():
    comb = markovian_comb([depolarizing_channel(0.2)])
    basis = default_basis(1)
    decomp = decompose_inverse(comb, basis=basis)
    assert decomp.basis is basis


# ---------------------------------------------------------------------------
# exact correction


def test_exact_correction_cancels_markovian_noise():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.3)])
    decomp = decompose_inverse(comb)
    rng = np.random.default_rng(47)
    layer = random_channel(2, rng=rng)
    rho = np.array([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]])
    for obs in (Z, X):
        got = pec_correct_exact(comb, decomp, [layer], rho, obs)
        assert got == pytest.approx(ideal_value([layer], rho, obs), abs=1e-10)


def test_exact_correction_cancels_correlated_noise():
    rng = np.random.default_rng(53)
    for _ in range(5):
        model = random_env_model(teeth=2, rng=rng, interaction_strength=0.5)
        comb = comb_from_env_model(model)
        decomp = decompose_inverse(comb)
        layer = random_channel(2, rng=rng)
        rho = np.diag([0.65, 0.35]).astype(complex)
        got = pec_correct_exact(comb, decomp, [layer], rho, Z)
        assert got == pytest.approx(ideal_value([layer], rho, Z), abs=1e-8)


def test_exact_correction_single_tooth():
    comb = markovian_comb([pauli_channel({"I": 0.8, "Y": 0.2})])
    decomp = decompose_inverse(comb)
    rho = np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex)
    got = pec_correct_exact(comb, decomp, [], rho, X)
    assert got == pytest.approx(np.trace(X @ rho).real, abs=1e-12)


def test_exact_correction_four_teeth():
    rng = np.random.default_rng(61)
    model = random_env_model(teeth=4, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    layers = [random_channel(2, rng=rng) for _ in range(3)]
    rho = random_density_matrix(2, rng)
    for obs in (X, Z):
        got = pec_correct_exact(comb, decomp, layers, rho, obs)
        assert got == pytest.approx(ideal_value(layers, rho, obs), abs=1e-8)


def test_exact_correction_two_qubit_system():
    rng = np.random.default_rng(67)
    model = random_env_model(teeth=2, n_sys_qubits=2, rng=rng, interaction_strength=0.3)
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    assert len(decomp.basis) == 256
    layer = random_channel(4, rng=rng)
    rho = random_density_matrix(4, rng)
    for label in ("ZI", "XY"):
        obs = pauli_matrix(label)
        got = pec_correct_exact(comb, decomp, [layer], rho, obs)
        assert got == pytest.approx(ideal_value([layer], rho, obs), abs=1e-8)


def reference_term_values(comb, ops, layers, rho, observable):
    # One comb closure per slot pattern: the definition the single
    # contraction in _term_values must reproduce.
    n_ops = len(ops)
    values = np.zeros((n_ops,) * comb.teeth)
    for combo in itertools.product(range(n_ops), repeat=comb.teeth - 1):
        dressed = [compose(layers[m], ops[combo[m]]) for m in range(comb.teeth - 1)]
        state = apply_comb(comb, dressed, rho)
        for last in range(n_ops):
            final = apply(ops[last], state)
            values[combo + (last,)] = np.trace(observable @ final).real
    return values


def transposed_insertion(decomp):
    """The decomposition with every basis operation's two wires swapped."""
    d = 2**decomp.n_qubits
    ops = tuple(
        Channel(choi=permute_wires(op.choi, [d, d], [1, 0]), d_in=d, d_out=d)
        for op in decomp.basis.ops
    )
    return replace(decomp, basis=BasisOpSet(ops, decomp.basis.names, decomp.n_qubits))


@pytest.mark.parametrize("teeth", [1, 2, 3])
def test_term_values_match_pattern_loop(teeth):
    rng = np.random.default_rng(70 + teeth)
    for _ in range(2):
        strength = rng.uniform(0.2, 0.8)
        model = random_env_model(teeth=teeth, rng=rng, interaction_strength=strength)
        comb = comb_from_env_model(model)
        decomp = decompose_inverse(comb)
        layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
        rho = random_density_matrix(2, rng)
        obs = pauli_matrix(str(rng.choice(list("IXYZ"))))
        for inserted in (decomp, transposed_insertion(decomp)):
            got = _term_values(comb, inserted, layers, rho, obs)
            want = reference_term_values(comb, inserted.basis.ops, layers, rho, obs)
            assert got.shape == (16,) * teeth
            assert np.abs(got - want).max() <= 1e-12


def test_term_values_reject_wrong_shapes():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    decomp = decompose_inverse(comb)
    layer = identity_channel(2)
    with pytest.raises(ValueError, match="input state shape"):
        pec_correct_exact(comb, decomp, [layer], np.eye(3) / 3, Z)
    with pytest.raises(ValueError, match="observable shape"):
        pec_correct_exact(comb, decomp, [layer], np.eye(2) / 2, np.eye(3))
    with pytest.raises(ValueError, match="observable shape"):
        pec_sample(comb, decomp, [layer], np.eye(2) / 2, np.ones(4), shots=10)


def test_transpose_insertion_breaks_cancellation():
    # The wire-swapped variant exists as a foil: with it the corrected
    # value drifts from the ideal one, pinning down the orientation of
    # the inserted operations.
    rng = np.random.default_rng(59)
    model = random_env_model(teeth=2, rng=rng, interaction_strength=0.7)
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    layer = random_channel(2, rng=rng)
    rho = np.diag([0.9, 0.1]).astype(complex)
    ideal = ideal_value([layer], rho, Z)
    plain = pec_correct_exact(comb, decomp, [layer], rho, Z)
    flipped = pec_correct_exact(comb, transposed_insertion(decomp), [layer], rho, Z)
    assert plain == pytest.approx(ideal, abs=1e-8)
    assert abs(flipped - ideal) > 1e-3


@pytest.mark.parametrize("decomp_teeth, comb_teeth", [(2, 3), (3, 2)])
def test_decomposition_for_other_teeth_is_rejected(decomp_teeth, comb_teeth):
    decomp = decompose_inverse(markovian_comb([depolarizing_channel(0.2)] * decomp_teeth))
    comb = markovian_comb([depolarizing_channel(0.2)] * comb_teeth)
    layers = [identity_channel(2)] * (comb_teeth - 1)
    rho = np.diag([1.0, 0.0]).astype(complex)
    message = f"decomposition is for {decomp_teeth} teeth .* comb has {comb_teeth} teeth"
    with pytest.raises(ValueError, match=message):
        pec_correct_exact(comb, decomp, layers, rho, Z)
    with pytest.raises(ValueError, match=message):
        pec_sample(comb, decomp, layers, rho, Z, shots=100, rng=np.random.default_rng(0))


def test_decomposition_for_other_qubit_count_is_rejected():
    decomp = decompose_inverse(markovian_comb([depolarizing_channel(0.2)]))
    comb = markovian_comb([depolarizing_channel(0.2, n_qubits=2)])
    rho, obs = np.eye(4) / 4, pauli_matrix("ZZ")
    message = "on 1 qubit.* comb has 1 teeth on 2 qubit"
    with pytest.raises(ValueError, match=message):
        pec_correct_exact(comb, decomp, [], rho, obs)
    with pytest.raises(ValueError, match=message):
        pec_sample(comb, decomp, [], rho, obs, shots=100)


def test_layer_count_checked():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    decomp = decompose_inverse(comb)
    with pytest.raises(ValueError, match="slot"):
        pec_correct_exact(comb, decomp, [], np.eye(2) / 2, Z)


# ---------------------------------------------------------------------------
# one term table per closing


def _counted_closings(monkeypatch) -> list:
    """Record the comb of every term-table contraction, not of every lookup."""
    closings, close = [], pec._close
    monkeypatch.setattr(pec, "_close", lambda comb, *a: closings.append(comb) or close(comb, *a))
    return closings


def _cancel_inputs(teeth=3):
    rng = np.random.default_rng(81)
    model = random_env_model(teeth=teeth, rng=rng, interaction_strength=0.4)
    layers = [random_channel(2, rng=rng) for _ in range(teeth - 1)]
    return model, layers, random_density_matrix(2, rng), pauli_matrix("X")


def test_exact_value_and_sampled_estimate_compute_one_table(monkeypatch):
    closings = _counted_closings(monkeypatch)
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    exact = pec_correct_exact(comb, decomp, layers, rho, obs)
    sampled = pec_sample(comb, decomp, layers, rho, obs, 500, np.random.default_rng(4))
    assert closings == [comb]
    # The table does not depend on alpha: another decomposition over the
    # same basis reads it too.
    assert pec_correct_exact(comb, decompose_inverse(comb), layers, rho, obs) == exact
    assert closings == [comb]
    # A fresh comb of the same model remembers nothing and agrees bit for bit.
    fresh = comb_from_env_model(model)
    fresh_decomp = decompose_inverse(fresh)
    assert pec_correct_exact(fresh, fresh_decomp, layers, rho, obs) == exact
    rng = np.random.default_rng(4)
    assert pec_sample(fresh, fresh_decomp, layers, rho, obs, 500, rng) == sampled
    assert np.array_equal(
        _term_values(comb, decomp, layers, rho, obs),
        _term_values(fresh, fresh_decomp, layers, rho, obs),
    )
    assert closings == [comb, fresh]


def test_remembered_table_is_read_only():
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    values = _term_values(comb, decompose_inverse(comb), layers, rho, obs)
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[(0,) * comb.teeth] = 1.0


@pytest.mark.parametrize("change", ["rho", "observable", "layer", "basis"])
def test_other_inputs_recompute_the_table(monkeypatch, change):
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    first = _term_values(comb, decomp, layers, rho, obs)
    args = {"decomp": decomp, "layers": layers, "rho": rho, "observable": obs}
    if change == "rho":
        args["rho"] = np.diag([0.0, 1.0]).astype(complex)
    elif change == "observable":
        args["observable"] = pauli_matrix("Z")
    elif change == "layer":
        args["layers"] = [layers[0], random_channel(2, rng=np.random.default_rng(2))]
    else:
        args["decomp"] = transposed_insertion(decomp)
    closings = _counted_closings(monkeypatch)
    got = _term_values(comb, **args)
    assert closings == [comb]
    assert not np.array_equal(got, first)
    assert np.array_equal(got, _term_values(comb_from_env_model(model), **args))


def test_an_equal_layer_of_another_object_recomputes_the_table(monkeypatch):
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    first = _term_values(comb, decomp, layers, rho, obs)
    closings = _counted_closings(monkeypatch)
    twin = Channel(choi=layers[1].choi.copy(), d_in=2, d_out=2)
    assert np.array_equal(_term_values(comb, decomp, [layers[0], twin], rho, obs), first)
    assert closings == [comb]


@pytest.mark.parametrize("mutated", ["rho", "observable"])
def test_mutating_an_input_in_place_gives_fresh_values(mutated):
    model, layers, rho, obs = _cancel_inputs()
    obs = obs.copy()
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    before = pec_correct_exact(comb, decomp, layers, rho, obs)
    if mutated == "rho":
        rho[:] = np.diag([0.0, 1.0])
    else:
        obs[:] = pauli_matrix("Z")
    after = pec_correct_exact(comb, decomp, layers, rho, obs)
    fresh = comb_from_env_model(model)
    assert after == pec_correct_exact(fresh, decompose_inverse(fresh), layers, rho, obs)
    assert after != before


def test_argument_checks_run_while_a_table_is_remembered():
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    decomp = decompose_inverse(comb)
    pec_correct_exact(comb, decomp, layers, rho, obs)
    other = decompose_inverse(markovian_comb([depolarizing_channel(0.2)] * 2))
    with pytest.raises(ValueError, match="decomposition is for 2 teeth"):
        pec_correct_exact(comb, other, layers, rho, obs)
    with pytest.raises(ValueError, match="input state shape"):
        pec_sample(comb, decomp, layers, np.eye(4) / 4, obs, shots=10)
    with pytest.raises(ValueError, match="observable shape"):
        pec_correct_exact(comb, decomp, layers, rho, np.eye(3))
    with pytest.raises(ValueError, match="expected 2 slot channels"):
        pec_correct_exact(comb, decomp, layers[:1], rho, obs)
    with pytest.raises(ValueError, match="slot channel dimension"):
        pec_sample(comb, decomp, [layers[0], identity_channel(4)], rho, obs, shots=10)


def test_remembered_table_dies_with_its_comb():
    """The table is kept beside the comb, not on it, and goes when the comb does."""
    model, layers, rho, obs = _cancel_inputs()
    comb = comb_from_env_model(model)
    _term_values(comb, decompose_inverse(comb), layers, rho, obs)
    assert comb in pec._TERM_MEMO
    assert not any("memo" in name for name in vars(comb))
    gc.collect()
    kept, alive = len(pec._TERM_MEMO), weakref.ref(comb)
    del comb
    gc.collect()
    assert alive() is None
    assert len(pec._TERM_MEMO) == kept - 1


def test_state_and_observable_may_be_lists():
    """Nested lists give the bits of arrays, and a list of the wrong shape is refused."""
    model, layers, rho, obs = _cancel_inputs()
    results = []
    for state, effect in ((rho, obs), (rho.tolist(), obs.tolist())):
        comb = comb_from_env_model(model)
        decomp = decompose_inverse(comb)
        exact = pec_correct_exact(comb, decomp, layers, state, effect)
        sampled = pec_sample(comb, decomp, layers, state, effect, 500, np.random.default_rng(4))
        results.append((exact, sampled))
    assert results[0] == results[1]
    with pytest.raises(ValueError, match="input state shape"):
        pec_correct_exact(comb, decomp, layers, [[1.0, 0.0, 0.0]], obs)
    with pytest.raises(ValueError, match="observable shape"):
        pec_sample(comb, decomp, layers, rho, [[1.0, 0.0, 0.0]], shots=10)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_given_seed():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    decomp = decompose_inverse(comb)
    layer = identity_channel(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    a = pec_sample(comb, decomp, [layer], rho, Z, shots=500, rng=np.random.default_rng(7))
    b = pec_sample(comb, decomp, [layer], rho, Z, shots=500, rng=np.random.default_rng(7))
    assert a == b


def test_sampling_estimates_the_exact_value():
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)])
    decomp = decompose_inverse(comb)
    layer = identity_channel(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    truth = pec_correct_exact(comb, decomp, [layer], rho, Z)
    assert truth == pytest.approx(1.0, abs=1e-10)
    estimate, err = pec_sample(
        comb, decomp, [layer], rho, Z, shots=20000, rng=np.random.default_rng(11)
    )
    assert err > 0
    assert abs(estimate - truth) < 6 * err


def test_sampling_error_shrinks_with_shots():
    comb = markovian_comb([depolarizing_channel(0.3), depolarizing_channel(0.3)])
    decomp = decompose_inverse(comb)
    layer = identity_channel(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    _, err_small = pec_sample(
        comb, decomp, [layer], rho, Z, shots=200, rng=np.random.default_rng(3)
    )
    _, err_big = pec_sample(
        comb, decomp, [layer], rho, Z, shots=20000, rng=np.random.default_rng(3)
    )
    assert err_big < err_small / 5


def test_sampling_needs_two_shots():
    comb = markovian_comb([depolarizing_channel(0.2)])
    decomp = decompose_inverse(comb)
    with pytest.raises(ValueError, match="shots"):
        pec_sample(comb, decomp, [], np.eye(2) / 2, Z, shots=1)


def test_sampling_needs_an_integer_number_of_shots():
    """A float count is refused, not cut down by the multinomial draw while
    the mean divides by it; numpy integers count as integers."""
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.1)])
    decomp = decompose_inverse(comb)
    args = (comb, decomp, [identity_channel(2)], np.eye(2) / 2, Z)
    for shots in (2.9, 1000.0):
        with pytest.raises(ValueError, match=f"shots must be an integer of at least 2, got {shots}"):
            pec_sample(*args, shots=shots)
    assert (pec_sample(*args, np.int64(500), np.random.default_rng(1))
            == pec_sample(*args, 500, np.random.default_rng(1)))
