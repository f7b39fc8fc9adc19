"""Tests for the tooth-by-tooth Pauli table and exact twirl, and for the
cached tables they and the table layer read."""

import re

import numpy as np
import pytest

from qcombs.channels import to_ptm
from qcombs.combs import Comb, comb_chi, comb_from_chi, comb_from_env_model, random_env_model
from qcombs.pauli import commutation_signs, pauli_labels, tooth_kernel
from qcombs.pec import decompose_inverse, default_basis, verify_basis_completeness
from qcombs.twirl import (
    PauliDiagTable,
    extract_pauli_diag,
    pauli_table,
    sampled_twirl,
    twirl_comb,
)

# (teeth, system qubits, interaction strength; None is Haar), one environment qubit.
TOOTH_CASES = [
    (m, n_sys, strength)
    for n_sys, teeth in ((1, (1, 2, 3, 4, 5)), (2, (1, 2)))
    for m in teeth
    for strength in (0.1, 0.6, None)
]


def _comb(m, n_sys, strength):
    rng = np.random.default_rng(2000 + 10 * m + n_sys)
    model = random_env_model(
        teeth=m, n_sys_qubits=n_sys, rng=rng, interaction_strength=strength
    )
    return comb_from_env_model(model, validate=False)


# The exact twirl as a mask on the process matrix, which the tooth path replaced.
def _chi_mask_twirl(comb):
    return comb_from_chi(np.diag(np.diag(comb_chi(comb))), comb.teeth, comb.d_sys)


# The sampled twirl with one draw per frame, which the batched draw replaced.
def _per_frame_sampled_twirl(comb, samples, rng):
    n = comb.d_sys.bit_length() - 1
    draws = np.array([rng.integers(0, 4**n, size=comb.teeth) for _ in range(samples)])
    frames = draws @ (4**n) ** np.arange(comb.teeth - 1, -1, -1)
    counts = np.bincount(frames, minlength=4 ** (n * comb.teeth))
    signs = commutation_signs(n * comb.teeth)
    chi = comb_chi(comb) * (signs.T @ (counts[:, None] * signs) / samples)
    return comb_from_chi(chi, comb.teeth, comb.d_sys)


# ---------------------------------------------------------------------------
# tooth path against the process matrix


@pytest.mark.parametrize("m, n_sys, strength", TOOTH_CASES)
def test_tooth_path_matches_process_matrix(m, n_sys, strength):
    comb = _comb(m, n_sys, strength)
    chi_diag = np.diag(comb_chi(comb)).real
    table = pauli_table(comb)
    assert (table.teeth, table.n_qubits) == (m, n_sys)
    labels = pauli_labels(n_sys * m)
    keys = [tuple(lbl[t * n_sys : (t + 1) * n_sys] for t in range(m)) for lbl in labels]
    assert list(table.probs) == keys
    assert np.abs(np.array(list(table.probs.values())) - chi_diag).max() < 1e-12

    twirled = twirl_comb(comb)
    assert (twirled.teeth, twirled.d_sys) == (m, comb.d_sys)
    assert np.abs(twirled.choi_op - _chi_mask_twirl(comb).choi_op).max() < 1e-12


def test_pauli_table_is_the_table_of_the_twirled_comb():
    comb = _comb(3, 1, None)
    direct = pauli_table(comb)
    via_twirl = extract_pauli_diag(twirl_comb(comb))
    assert direct.probs.keys() == via_twirl.probs.keys()
    for key, p in direct.probs.items():
        assert abs(p - via_twirl.probs[key]) < 1e-14


def test_tooth_path_rejects_non_qubit_systems():
    comb = Comb(choi_op=np.eye(9, dtype=complex), teeth=1, d_sys=3)
    with pytest.raises(ValueError):
        pauli_table(comb)
    with pytest.raises(ValueError):
        twirl_comb(comb)


# ---------------------------------------------------------------------------
# sampled twirl draws all frames at once


@pytest.mark.parametrize("m, n_sys", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_sampled_twirl_matches_per_frame_draws_bit_for_bit(m, n_sys):
    comb = _comb(m, n_sys, 0.6)
    for seed in (0, 1, 17, 2024):
        for samples in (1, 7, 64, 200):
            got = sampled_twirl(comb, samples, np.random.default_rng(seed))
            ref = _per_frame_sampled_twirl(comb, samples, np.random.default_rng(seed))
            assert np.array_equal(got.choi_op, ref.choi_op)


# ---------------------------------------------------------------------------
# table validation words the first bad entry, wherever it sits


def _ok(key):
    return {("I", "I"): 0.5, ("X", "Z"): 0.25, key: 0.25}


@pytest.mark.parametrize(
    "probs, message",
    [
        (_ok(("I", "Q")), "bad Pauli label 'Q'"),
        (_ok(("I", "XX")), "key ('I', 'XX') does not match 2 teeth of 1 qubits"),
        (_ok(("I", "X", "Y")), "key ('I', 'X', 'Y') does not match 2 teeth of 1 qubits"),
        (_ok(("Y",)), "key ('Y',) does not match 2 teeth of 1 qubits"),
        ({("I", "I"): 1.2, ("X", "Z"): 0.0, ("Y", "Y"): -0.2},
         "probability of ('Y', 'Y') is negative (-2.000e-01)"),
        ({("I", "I"): 0.5, ("X", "Z"): 0.25, ("Y", "Y"): 0.125}, "probabilities sum to 0.875, not 1"),
    ],
)
def test_table_words_a_late_bad_entry(probs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PauliDiagTable(probs=probs, teeth=2, n_qubits=1)


def test_table_reports_the_first_bad_entry_in_key_order():
    probs = {("I", "I"): 1.0, ("X", "X"): -0.5, ("Q", "I"): 0.5}
    with pytest.raises(ValueError, match="negative"):
        PauliDiagTable(probs=probs, teeth=2, n_qubits=1)
    probs = {("I", "I"): 1.0, ("Q", "I"): 0.5, ("X", "X"): -0.5}
    with pytest.raises(ValueError, match="bad Pauli label 'Q'"):
        PauliDiagTable(probs=probs, teeth=2, n_qubits=1)


def test_table_still_takes_keys_that_are_not_tuples():
    table = PauliDiagTable(probs={"IX": 0.75, ("Z", "Z"): 0.25}, teeth=2, n_qubits=1)
    assert table.probs == {("I", "X"): 0.75, ("Z", "Z"): 0.25}


def test_table_renormalizes_in_dict_order():
    # 1024 entries, enough for a pairwise or compensated sum to round differently.
    rng = np.random.default_rng(5)
    raw = rng.random(4**5)
    raw[[3, 40]] = 0.0
    raw /= raw.sum()
    raw[[3, 40]] = -3e-11
    keys = [tuple(lbl) for lbl in pauli_labels(5)]
    table = PauliDiagTable(probs=dict(zip(keys, raw.tolist())), teeth=5, n_qubits=1)
    clean = [max(float(p), 0.0) for p in raw]
    total = sum(clean)
    assert list(table.probs) == keys
    assert all(type(p) is float for p in table.probs.values())
    assert list(table.probs.values()) == [p / total for p in clean]


# ---------------------------------------------------------------------------
# cached arrays are shared and read-only


def test_cached_arrays_are_read_only():
    basis = default_basis(1)
    for arr in (tooth_kernel(1), tooth_kernel(2), commutation_signs(2), basis.ptm_stack):
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0
    assert tooth_kernel(1).shape == (16, 4)
    assert tooth_kernel(2).shape == (256, 16)


def test_ptm_stack_is_computed_once_per_basis_with_the_same_bits():
    basis = default_basis(1)
    assert basis.ptm_stack is basis.ptm_stack
    rebuilt = np.array([to_ptm(op).reshape(-1) for op in basis.ops])
    assert np.array_equal(basis.ptm_stack, rebuilt)
    report = verify_basis_completeness(basis)
    assert report.rank == len(basis)
    comb = _comb(2, 1, 0.3)
    assert np.array_equal(decompose_inverse(comb).alpha, decompose_inverse(comb, basis).alpha)
