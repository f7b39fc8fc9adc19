import numpy as np
import pytest

import dense_reference as ref
from qcombs.channels import Channel, to_chi, to_ptm
from qcombs.combs import choi_channel, comb_from_chi
from qcombs.linalg import superop_to_choi
from qcombs.pauli import label_index, pauli_basis, pauli_labels, pauli_matrix


def test_labels_single_qubit_order():
    assert pauli_labels(1) == ["I", "X", "Y", "Z"]


def test_labels_two_qubits_leftmost_slowest():
    labels = pauli_labels(2)
    assert len(labels) == 16
    assert labels[0] == "II"
    assert labels[1] == "IX"
    assert labels[4] == "XI"
    assert labels[label_index("YZ")] == "YZ"


def test_label_index_roundtrip():
    for i, lbl in enumerate(pauli_labels(2)):
        assert label_index(lbl) == i


def test_pauli_matrix_values():
    assert np.allclose(pauli_matrix("X"), [[0, 1], [1, 0]])
    assert np.allclose(pauli_matrix("Y"), [[0, -1j], [1j, 0]])
    assert np.allclose(pauli_matrix("ZX"), np.kron(np.diag([1, -1]), [[0, 1], [1, 0]]))


def test_pauli_matrix_rejects_bad_letter():
    with pytest.raises(ValueError, match="bad Pauli label 'XQ': not a 2-qubit label over IXYZ"):
        pauli_matrix("XQ")


@pytest.mark.parametrize("n", [1, 2])
def test_basis_orthogonality(n):
    basis = pauli_basis(n)
    d = 2**n
    for a, ga in enumerate(basis):
        for b, gb in enumerate(basis):
            want = d if a == b else 0.0
            assert abs(np.trace(ga @ gb) - want) < 1e-12


def _choi_of_kraus(kraus):
    d2 = kraus[0].size
    choi = np.zeros((d2, d2), dtype=complex)
    for k in kraus:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def _chi(choi):
    d = int(np.sqrt(choi.shape[0]))
    return to_chi(Channel(choi=choi, d_in=d, d_out=d))


def _ptm(superop):
    d = int(np.sqrt(superop.shape[0]))
    return to_ptm(Channel(choi=superop_to_choi(superop, d, d), d_in=d, d_out=d))


def test_chi_of_x_rotation():
    # U = exp(-i theta X / 2) mixes the identity and X components with
    # weights cos^2, sin^2 and a purely imaginary cross term.
    theta = 0.7
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = c * np.eye(2) - 1j * s * pauli_matrix("X")
    chi = _chi(_choi_of_kraus([u]))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = c * c
    expected[1, 1] = s * s
    expected[0, 1] = 1j * c * s
    expected[1, 0] = -1j * c * s
    assert np.allclose(chi, expected, atol=1e-12)


def test_chi_diag_sums_to_one_for_unitary():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    chi = _chi(_choi_of_kraus([q]))
    assert np.isclose(np.trace(chi).real, 1.0)


def test_choi_chi_roundtrip():
    rng = np.random.default_rng(1)
    kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    choi = _choi_of_kraus(kraus)
    assert np.allclose(ref.choi_from_chi(_chi(choi)), choi)
    # The one-tooth comb whose channel form has this chi is the channel itself.
    assert np.allclose(choi_channel(comb_from_chi(_chi(choi), 1, 2)).choi, choi)


def test_pauli_forms_reject_non_qubit_dimension():
    with pytest.raises(ValueError, match="does not match"):
        Channel(choi=np.eye(3), d_in=3, d_out=3)
    for form in (to_chi, to_ptm):
        with pytest.raises(ValueError, match="power of two"):
            form(Channel(choi=np.eye(9), d_in=3, d_out=3))


def test_ptm_of_x_rotation_is_bloch_rotation():
    theta = 0.7
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = c * np.eye(2) - 1j * s * pauli_matrix("X")
    superop = np.kron(u, u.conj())
    r = _ptm(superop)
    expected = np.eye(4)
    expected[2, 2] = expected[3, 3] = np.cos(theta)
    expected[3, 2] = np.sin(theta)
    expected[2, 3] = -np.sin(theta)
    assert np.allclose(r, expected, atol=1e-12)


def test_ptm_superop_roundtrip():
    rng = np.random.default_rng(2)
    kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    superop = sum(np.kron(k, k.conj()) for k in kraus)
    r = _ptm(superop)
    assert np.allclose(ref.superop_from_ptm(r), superop)


def test_ptm_entry_definition():
    # R[a, b] = Tr[G_a E(G_b)] / 2, checked entrywise for one channel.
    rng = np.random.default_rng(3)
    k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    superop = np.kron(k, k.conj())
    r = _ptm(superop)
    basis = pauli_basis(1)
    for a in range(4):
        for b in range(4):
            val = np.trace(basis[a] @ k @ basis[b] @ k.conj().T).real / 2
            assert abs(r[a, b] - val) < 1e-12
