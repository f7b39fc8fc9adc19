"""Tests for the tooth-by-tooth Pauli table and exact twirl, and for the
cached tables they and the table layer read."""

import re

import numpy as np
import pytest

from dense_reference import sampled_twirl_op
from qcombs import combs
from qcombs.channels import to_ptm
from qcombs.combs import (
    Comb,
    _pauli_diag,
    _thin_factor,
    comb_chi,
    comb_from_chi,
    comb_from_env_model,
    random_env_model,
)
from qcombs.pauli import commutation_signs, offdiag_mass, pauli_labels, tooth_kernel, tooth_sandwich
from qcombs.pec import decompose_inverse, default_basis, verify_basis_completeness
from qcombs.twirl import (
    PauliDiagTable,
    comb_from_pauli_table,
    env_model_from_pauli_table,
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


@pytest.mark.parametrize("m, n_sys, strength", TOOTH_CASES)
def test_table_comb_and_unguarded_read_match_process_matrix(m, n_sys, strength):
    """comb_from_pauli_table and extract_pauli_diag(max_offdiag_mass=None)
    against the process-matrix paths they replaced."""
    comb = _comb(m, n_sys, strength)
    table = pauli_table(comb)
    p = np.array(list(table.probs.values()))
    built = comb_from_pauli_table(table)
    assert (built.teeth, built.d_sys) == (m, comb.d_sys)
    assert np.abs(built.choi_op - comb_from_chi(np.diag(p), m, comb.d_sys).choi_op).max() < 1e-12

    unguarded = extract_pauli_diag(comb, max_offdiag_mass=None)
    guarded = extract_pauli_diag(comb, max_offdiag_mass=np.inf)
    assert unguarded.probs.keys() == guarded.probs.keys()
    assert max(abs(unguarded.probs[k] - guarded.probs[k]) for k in guarded.probs) < 1e-12


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


@pytest.mark.parametrize("m, n_sys", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2)])
def test_sampled_twirl_operator_matches_the_dense_mask(m, n_sys):
    comb = _comb(m, n_sys, 0.6)
    for samples in (1, 7, 64):
        got = sampled_twirl(comb, samples, np.random.default_rng(samples)).choi_op
        want = sampled_twirl_op(comb, samples, np.random.default_rng(samples))
        assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# the process matrix read from a thin factor, and combs that keep theirs


@pytest.mark.parametrize("m, n_sys, strength", TOOTH_CASES)
def test_factor_chi_matches_the_dense_sandwich(m, n_sys, strength):
    comb = _comb(m, n_sys, strength)
    chi = comb_chi(comb)
    # A thin factor is read without forming the operator.
    assert (comb._choi_op is None) == (_thin_factor(comb) is not None)
    want = tooth_sandwich(comb.choi_op, m, comb.d_sys) / comb.d_sys ** (2 * m)
    assert np.abs(chi - want).max() < 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("m, n_sys", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_offdiagonal_guard_reads_the_factor_chi(m, n_sys):
    comb = _comb(m, n_sys, 0.6)
    assert _thin_factor(comb) is not None
    a, s = comb.factor
    dense_chi = tooth_sandwich((a * s) @ a.conj().T, m, comb.d_sys) / comb.d_sys ** (2 * m)
    want = offdiag_mass(dense_chi)
    assert abs(offdiag_mass(comb_chi(comb)) - want) < 1e-12 * max(want, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"off-diagonal mass {want:.3e}")):
        extract_pauli_diag(comb)
    assert extract_pauli_diag(twirl_comb(comb)).probs == pauli_table(comb).probs

    # A dilation of a Pauli table holds a thin factor and passes the guard.
    keys = [("I" * n_sys,) * m, ("X" * n_sys,) * m]
    table = PauliDiagTable(dict(zip(keys, (0.75, 0.25))), teeth=m, n_qubits=n_sys)
    dilated = comb_from_env_model(env_model_from_pauli_table(table))
    assert _thin_factor(dilated) is not None
    read = extract_pauli_diag(dilated)
    assert dilated._choi_op is None
    assert abs(read.prob(keys[0]) - 0.75) < 1e-12 and abs(read.prob(keys[1]) - 0.25) < 1e-12


def test_comb_from_chi_keeps_a_read_only_copy():
    comb = _comb(2, 1, 0.6)
    chi = np.array(comb_chi(comb))
    built = comb_from_chi(chi, 2, 2)
    chi[0, 0] += 1.0
    chi[3, 5] = 7.0
    kept = comb_chi(built)
    assert np.array_equal(kept, comb_chi(comb))
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = 0.0
    assert np.array_equal(_pauli_diag(built), np.diag(kept))
    assert built._choi_op is None


def test_one_comb_reads_its_pauli_coordinates_once(monkeypatch):
    """Twirling, sampling and reading chi contract the factor once per comb,
    into the numbers that a fresh comb gives each of them."""
    want = (twirl_comb(_comb(3, 1, None)).pauli, pauli_table(_comb(3, 1, None)).vector,
            comb_chi(sampled_twirl(_comb(3, 1, None), 64, np.random.default_rng(4))),
            comb_chi(_comb(3, 1, None)))
    calls = []
    pauli_coords = combs._pauli_coords

    def counted(*args):
        calls.append(args)
        return pauli_coords(*args)

    monkeypatch.setattr(combs, "_pauli_coords", counted)
    comb = _comb(3, 1, None)
    got = (twirl_comb(comb).pauli, pauli_table(comb).vector,
           comb_chi(sampled_twirl(comb, 64, np.random.default_rng(4))), comb_chi(comb))
    assert len(calls) == 1 and comb._choi_op is None
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_comb_refuses_a_process_matrix_beside_a_factor_or_of_the_wrong_shape():
    comb = _comb(2, 1, 0.6)
    chi = comb_chi(comb)
    with pytest.raises(ValueError, match="takes no factor or Pauli weights"):
        Comb(teeth=2, d_sys=2, chi=chi, factor=comb.factor)
    with pytest.raises(ValueError, match="takes no factor or Pauli weights"):
        Comb(teeth=2, d_sys=2, chi=chi, pauli=np.diag(chi).real)
    with pytest.raises(ValueError, match="process matrix shape"):
        Comb(teeth=3, d_sys=2, chi=chi)
    with pytest.raises(ValueError, match="process matrix shape"):
        comb_from_chi(chi[:-1], 2, 2)
    with pytest.raises(ValueError, match="not a power of two"):
        comb_from_chi(np.eye(9), 1, 3)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_refuses_a_probability_that_is_not_finite(bad):
    vector = np.array([0.5, bad, 0.5, 0.0, np.nan, 0.0, 0.0, 0.0] + [0.0] * 8)
    with pytest.raises(ValueError, match=re.escape(f"probability of ('I', 'X') is not finite ({bad})")):
        PauliDiagTable(vector, teeth=2, n_qubits=1)
    probs = {("I", "I"): 0.5, ("Z", "Y"): bad, ("X", "Z"): np.nan, ("Y", "Y"): 0.5}
    with pytest.raises(ValueError, match=re.escape(f"probability of ('Z', 'Y') is not finite ({bad})")):
        PauliDiagTable(probs, teeth=2, n_qubits=1)


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
