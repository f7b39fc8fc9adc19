import numpy as np
import pytest

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
    random_unitary,
    tensor_channels,
    to_chi,
    to_ptm,
    unitary_channel,
)
import dense_reference as ref
from dense_reference import (
    apply_channel_on,
    completely_depolarizing,
    embed,
    is_completely_positive,
)
from qcombs.combs import choi_channel, comb_from_chi
from qcombs.linalg import choi_to_superop, tensor
from qcombs.pauli import pauli_basis


def rand_kraus(rng, n_ops, d=2):
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(n_ops)]
    total = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(total)
    fix = v @ np.diag(w**-0.5) @ v.conj().T
    return [k @ fix for k in ops]


def test_from_kraus_apply_matches_kraus_sum():
    rng = np.random.default_rng(0)
    kraus = rand_kraus(rng, 3)
    ch = from_kraus(kraus)
    rho = random_density_matrix(2, rng)
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    assert np.allclose(apply(ch, rho), direct)


def test_from_kraus_rejects_non_tp():
    with pytest.raises(ValueError, match="sum to the identity"):
        from_kraus([0.5 * np.eye(2)])


def test_from_kraus_allows_trace_decreasing_when_asked():
    ch = from_kraus([0.5 * np.eye(2)], require_tp=False)
    assert not ch.is_trace_preserving()
    assert is_completely_positive(ch)


def test_channel_shape_validation():
    with pytest.raises(ValueError, match="does not match"):
        Channel(choi=np.eye(3), d_in=2, d_out=2)


def test_channel_from_a_nested_list_is_the_arrays_channel():
    choi = random_channel(2, rng=np.random.default_rng(9)).choi
    got = Channel(choi=choi.tolist(), d_in=2, d_out=2)
    assert isinstance(got.choi, np.ndarray)
    assert np.array_equal(got.choi, choi)
    rho = random_density_matrix(2, np.random.default_rng(10))
    assert np.array_equal(apply(got, rho), apply(Channel(choi=choi, d_in=2, d_out=2), rho))
    with pytest.raises(ValueError, match="does not match"):
        Channel(choi=np.eye(3).tolist(), d_in=2, d_out=2)


def test_from_kraus_refuses_an_empty_list():
    with pytest.raises(ValueError, match="from_kraus needs at least one Kraus operator"):
        from_kraus([])


def test_pauli_channel_refuses_an_empty_mapping():
    with pytest.raises(ValueError, match="pauli_channel needs at least one Pauli label"):
        pauli_channel({})


def test_apply_rejects_wrong_state_shape():
    ch = identity_channel(2)
    with pytest.raises(ValueError, match="does not match the system dimension 2"):
        apply(ch, np.eye(3))


def test_validate_flags_non_cp():
    bad = Channel(choi=np.diag([1.0, 1.0, 1.0, -1.0]), d_in=2, d_out=2)
    with pytest.raises(ValueError, match="not positive"):
        bad.validate()


def test_validate_flags_non_tp():
    half = from_kraus([np.eye(2) / np.sqrt(2)], require_tp=False)
    with pytest.raises(ValueError, match="not trace preserving"):
        half.validate()


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(1)
    a = random_channel(2, rng=rng)
    b = random_channel(2, rng=rng)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply(compose(b, a), rho), apply(b, apply(a, rho)))


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions do not line up"):
        compose(identity_channel(2), identity_channel(3))


def test_tensor_channels_matches_joint_kraus():
    rng = np.random.default_rng(2)
    ka = rand_kraus(rng, 2)
    kb = rand_kraus(rng, 2)
    joint = from_kraus([np.kron(a, b) for a in ka for b in kb])
    split = tensor_channels(from_kraus(ka), from_kraus(kb))
    assert np.allclose(joint.choi, split.choi)


def test_unitary_channel_action():
    rng = np.random.default_rng(3)
    u = random_unitary(2, rng)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply(unitary_channel(u), rho), u @ rho @ u.conj().T)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


# A deviation of 5e-6 from the identity lies within numpy's default
# relative tolerance of 1e-5, so these checks compare with rtol=0.
@pytest.mark.parametrize("eps, ok", [(5e-6, False), (1e-12, True)])
def test_identity_checks_hold_their_absolute_tolerance(eps, ok):
    k = np.sqrt(1 + eps) * np.eye(2)
    assert from_kraus([k], require_tp=False).is_trace_preserving() is ok
    for build, message in ((lambda: from_kraus([k]), "sum to the identity"),
                           (lambda: unitary_channel(np.diag([np.sqrt(1 + eps), 1.0])),
                            "not unitary")):
        if ok:
            build().validate()
        else:
            with pytest.raises(ValueError, match=message):
                build()


def test_depolarizing_action():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(2, rng)
    out = apply(depolarizing_channel(0.2), rho)
    assert np.allclose(out, 0.8 * rho + 0.2 * np.eye(2) / 2)


def test_depolarizing_chi_diagonal():
    chi = to_chi(depolarizing_channel(0.2))
    assert np.allclose(np.diag(chi).real, [0.85, 0.05, 0.05, 0.05])
    assert np.allclose(chi - np.diag(np.diag(chi)), 0.0, atol=1e-12)


def test_depolarizing_strength_bounds():
    with pytest.raises(ValueError, match="lie in"):
        depolarizing_channel(1.5)


def test_pauli_channel_action():
    rng = np.random.default_rng(5)
    probs = {"I": 0.7, "X": 0.2, "Z": 0.1}
    ch = pauli_channel(probs)
    rho = random_density_matrix(2, rng)
    basis = {lbl: pauli_basis(1)["IXYZ".index(lbl)] for lbl in probs}
    direct = sum(p * basis[lbl] @ rho @ basis[lbl] for lbl, p in probs.items())
    assert np.allclose(apply(ch, rho), direct)


def test_pauli_channel_validation():
    with pytest.raises(ValueError, match="sum to one"):
        pauli_channel({"I": 0.5, "X": 0.3})
    with pytest.raises(ValueError, match="same length"):
        pauli_channel({"I": 0.5, "XX": 0.5})


def test_completely_depolarizing_output():
    rng = np.random.default_rng(6)
    ch = completely_depolarizing(3)
    rho = random_density_matrix(3, rng)
    assert np.allclose(apply(ch, rho), np.eye(3) / 3)
    assert ch.is_trace_preserving()


def test_ptm_chi_roundtrips():
    rng = np.random.default_rng(7)
    ch = random_channel(2, rng=rng)
    assert np.allclose(ref.superop_from_ptm(to_ptm(ch)), choi_to_superop(ch.choi, 2, 2))
    assert np.allclose(ref.choi_from_chi(to_chi(ch)), ch.choi)
    # A channel is the one-tooth comb, whose channel form is the channel itself.
    assert np.allclose(choi_channel(comb_from_chi(to_chi(ch), 1, 2)).choi, ch.choi)


def test_ptm_of_tp_channel_first_row():
    rng = np.random.default_rng(8)
    r = to_ptm(random_channel(2, rng=rng))
    assert np.allclose(r[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_apply_channel_on_middle_wire():
    rng = np.random.default_rng(9)
    kraus = rand_kraus(rng, 2)
    ch = from_kraus(kraus)
    dims = [2, 2, 3]
    rho = random_density_matrix(12, rng)
    got = apply_channel_on(rho, dims, [1], ch)
    direct = np.zeros_like(rho)
    for k in kraus:
        big = embed(k, dims, [1])
        direct += big @ rho @ big.conj().T
    assert np.allclose(got, direct)


def test_apply_channel_on_two_wires_out_of_order():
    rng = np.random.default_rng(10)
    kraus = rand_kraus(rng, 2, d=4)
    ch = from_kraus(kraus)
    dims = [2, 3, 2]
    rho = random_density_matrix(12, rng)
    got = apply_channel_on(rho, dims, [2, 0], ch)
    direct = np.zeros_like(rho)
    for k in kraus:
        big = embed(k, dims, [2, 0])
        direct += big @ rho @ big.conj().T
    assert np.allclose(got, direct)


def test_apply_channel_on_dimension_check():
    with pytest.raises(ValueError, match="does not match target"):
        apply_channel_on(np.eye(4) / 4, [2, 2], [0], identity_channel(3))


def test_random_unitary_is_unitary_and_seeded():
    u = random_unitary(4, np.random.default_rng(11))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    v = random_unitary(4, np.random.default_rng(11))
    assert np.allclose(u, v)


def test_random_channel_is_cptp():
    ch = random_channel(2, 3, rng=np.random.default_rng(12))
    ch.validate()
    assert ch.d_in == 2 and ch.d_out == 3


def test_random_density_matrix_properties():
    rho = random_density_matrix(4, np.random.default_rng(13))
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.all(np.linalg.eigvalsh(rho) > -1e-12)


def test_tensor_channels_on_entangled_input():
    rng = np.random.default_rng(14)
    a = random_channel(2, rng=rng)
    b = random_channel(2, rng=rng)
    big = tensor_channels(a, b)
    rho = random_density_matrix(4, rng)
    got = apply(big, rho)
    direct = apply_channel_on(apply_channel_on(rho, [2, 2], [0], a), [2, 2], [1], b)
    assert np.allclose(got, direct)
