from functools import reduce

import numpy as np
import pytest

from dense_reference import (
    apply_on,
    conjugate_on,
    embed,
    max_entangled,
    permutation_matrix,
    trace_distance,
    trace_norm,
)
from qcombs.channels import Channel, from_kraus, identity_channel, pauli_channel, unitary_channel
from qcombs.combs import Comb, EnvModel, apply_comb, markovian_comb
from qcombs.linalg import (
    ShapeError,
    check_shape,
    check_unitary,
    choi_to_superop,
    is_hermitian,
    partial_trace,
    permute_wires,
    psd_check,
    psd_check_factored,
    superop_to_choi,
    tensor,
)
from qcombs.pauli import label_index
from qcombs.twirl import PauliDiagTable
from qcombs.vcp import vcp_comb


def rand_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_tensor_matches_kron_chain():
    rng = np.random.default_rng(0)
    a, b, c = rand_matrix(rng, 2), rand_matrix(rng, 3), rand_matrix(rng, 2)
    assert np.allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_tensor_single_factor():
    rng = np.random.default_rng(1)
    a = rand_matrix(rng, 4)
    assert np.allclose(tensor(a), a)


_RNG = np.random.default_rng(2)


@pytest.mark.parametrize(
    "ops",
    [
        [_RNG.standard_normal((2, 2)), _RNG.standard_normal((3, 3))],
        [rand_matrix(_RNG, 2), rand_matrix(_RNG, 3), rand_matrix(_RNG, 2)],
        [_RNG.standard_normal((2, 3)), rand_matrix(_RNG, 2), _RNG.standard_normal((1, 4))],
        [np.zeros((0, 3)), rand_matrix(_RNG, 2)],
        [rand_matrix(_RNG, 2), np.zeros((2, 0))],
    ],
    ids=["real", "complex", "rectangular", "empty-rows", "empty-columns"],
)
def test_tensor_equals_kron_chain_bit_for_bit(ops):
    got = tensor(*ops)
    assert got.dtype == complex
    assert np.array_equal(got, reduce(np.kron, ops))


def test_max_entangled_entries():
    v = max_entangled(3)
    assert v.shape == (9,)
    assert np.isclose(v @ v.conj(), 3.0)
    m = v.reshape(3, 3)
    assert np.allclose(m, np.eye(3))


def _partial_trace_loops(m, dims, keep):
    """Nested loop reference for the partial trace."""
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep]))
    t = m.reshape(dims + dims)
    out = np.zeros((d_keep, d_keep), dtype=complex)
    keep_dims = [dims[k] for k in keep]
    for row in np.ndindex(*keep_dims):
        for col in np.ndindex(*keep_dims):
            acc = 0.0
            for diag in np.ndindex(*[dims[i] for i in drop]):
                idx_r = [0] * n
                idx_c = [0] * n
                for pos, k in enumerate(keep):
                    idx_r[k] = row[pos]
                    idx_c[k] = col[pos]
                for pos, i in enumerate(drop):
                    idx_r[i] = diag[pos]
                    idx_c[i] = diag[pos]
                acc += t[tuple(idx_r) + tuple(idx_c)]
            r = np.ravel_multi_index(row, keep_dims) if keep else 0
            c = np.ravel_multi_index(col, keep_dims) if keep else 0
            out[r, c] = acc
    return out


@pytest.mark.parametrize("keep", [[0], [1], [2], [0, 2], [0, 1, 2]])
def test_partial_trace_against_loops(keep):
    rng = np.random.default_rng(2)
    dims = [2, 3, 2]
    m = rand_matrix(rng, 12)
    got = partial_trace(m, dims, keep)
    assert np.allclose(got, _partial_trace_loops(m, dims, keep))


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
    m = tensor(a, b)
    assert np.allclose(partial_trace(m, [2, 3], [0]), a * np.trace(b))
    assert np.allclose(partial_trace(m, [2, 3], [1]), b * np.trace(a))


def test_partial_trace_keep_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(np.eye(4), [2, 2], [2])


def test_permute_wires_on_product():
    rng = np.random.default_rng(4)
    a, b, c = rand_matrix(rng, 2), rand_matrix(rng, 3), rand_matrix(rng, 4)
    m = tensor(a, b, c)
    got = permute_wires(m, [2, 3, 4], [2, 0, 1])
    assert np.allclose(got, tensor(c, a, b))


def test_permute_wires_rejects_bad_perm():
    with pytest.raises(ValueError, match="not a permutation"):
        permute_wires(np.eye(4), [2, 2], [0, 0])


def test_permutation_matrix_agrees_with_permute_wires():
    rng = np.random.default_rng(5)
    dims = [2, 2, 3]
    m = rand_matrix(rng, 12)
    perm = [1, 2, 0]
    p = permutation_matrix(dims, perm)
    assert np.allclose(p @ p.conj().T, np.eye(12))
    assert np.allclose(p @ m @ p.conj().T, permute_wires(m, dims, perm))


def test_permutation_matrix_on_basis_vector():
    p = permutation_matrix([2, 3], [1, 0])
    v = np.zeros(6)
    v[1 * 3 + 2] = 1.0  # |1>|2>
    w = p @ v
    expected = np.zeros(6)
    expected[2 * 2 + 1] = 1.0  # |2>|1>
    assert np.allclose(w, expected)


def test_embed_acts_only_on_targets():
    rng = np.random.default_rng(6)
    op = rand_matrix(rng, 2)
    dims = [2, 3, 2]
    big = embed(op, dims, [2])
    a, b, c = rand_matrix(rng, 2), rand_matrix(rng, 3), rand_matrix(rng, 2)
    assert np.allclose(big @ tensor(a, b, c), tensor(a, b, op @ c))


def test_embed_two_targets_reordered():
    rng = np.random.default_rng(7)
    op = rand_matrix(rng, 4)
    dims = [2, 3, 2]
    big = embed(op, dims, [2, 0])
    # action on a product vector, computed by hand
    va = rng.standard_normal(2)
    vb = rng.standard_normal(3)
    vc = rng.standard_normal(2)
    out = big @ tensor(va.reshape(-1, 1), vb.reshape(-1, 1), vc.reshape(-1, 1))
    paired = op @ np.kron(vc, va)
    expect = np.einsum("ca,b->abc", paired.reshape(2, 2), vb).reshape(-1, 1)
    assert np.allclose(out, expect)


@pytest.mark.parametrize(
    "targets",
    [[0], [2], [3], [0, 1], [2, 0], [3, 1], [1, 3], [0, 1, 2], [2, 0, 3], [3, 1, 0]],
)
def test_apply_on_matches_embedded_operator(targets):
    """apply_on against the dense reference embed(op) on rows and columns."""
    rng = np.random.default_rng(targets)
    for _ in range(3):
        dims = [int(x) for x in rng.integers(2, 6, size=4)]
        n, d = len(dims), int(np.prod(dims))
        d_t = int(np.prod([dims[t] for t in targets]))
        op, m = rand_matrix(rng, d_t), rand_matrix(rng, d)
        big = embed(op, dims, targets)
        cols = [t + n for t in targets]
        assert np.abs(apply_on(m, dims + dims, targets, op) - big @ m).max() < 1e-12
        assert np.abs(apply_on(m, dims + dims, cols, op) - m @ big.T).max() < 1e-12
        v = m[:, 0]
        assert np.abs(apply_on(v, dims, targets, op) - big @ v).max() < 1e-12
        expect = big @ m @ big.conj().T
        assert np.abs(conjugate_on(m, dims, targets, op) - expect).max() < 1e-12 * max(
            np.abs(expect).max(), 1.0
        )


def test_is_hermitian():
    rng = np.random.default_rng(8)
    m = rand_matrix(rng, 4)
    h = m + m.conj().T
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))


@pytest.mark.parametrize("n", [1, 4, 37, 600])
def test_is_hermitian_matches_one_shot_formula(n):
    """The row-blocked deviation equals ||m - m^dag|| to 1e-12 relative.

    At n=600 the blocks are 27 rows and the last one is ragged.  The
    verdict is read on both sides of the one-shot ratio, and a matrix
    whose deviation is twice the tolerance must fail.
    """
    rng = np.random.default_rng(n)
    g = rand_matrix(rng, n)
    h = g + g.conj().T
    for m in (h + 1e-3 * rand_matrix(rng, n), rand_matrix(rng, n)):
        ratio = np.linalg.norm(m - m.conj().T) / max(np.linalg.norm(m), 1.0)
        assert is_hermitian(m, tol=ratio * (1 + 1e-12))
        assert not is_hermitian(m, tol=ratio * (1 - 1e-12))
    tol = 1e-9
    dev = rand_matrix(rng, n)
    dev -= dev.conj().T
    near = h + dev * (tol * np.linalg.norm(h) / np.linalg.norm(dev))
    assert np.linalg.norm(near - near.conj().T) > 1.9 * tol * np.linalg.norm(near)
    assert not is_hermitian(near, tol=tol)
    assert is_hermitian(h + (near - h) / 4, tol=tol)


def test_psd_check_accepts_and_rejects():
    rng = np.random.default_rng(9)
    g = rand_matrix(rng, 4)
    pos = g @ g.conj().T
    rep = psd_check(pos)
    assert rep.is_psd
    assert rep.min_eigenvalue >= -1e-12 * np.trace(pos).real
    bad = np.diag([1.0, 1.0, 1.0, -0.1])
    rep_bad = psd_check(bad)
    assert not rep_bad.is_psd
    assert np.isclose(rep_bad.min_eigenvalue, -0.1)


@pytest.mark.parametrize("signs", [[1, 1, 1], [1, -1, 1], [1, 0, 1]])
def test_psd_check_factored_matches_dense(signs):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    s = np.array(signs, dtype=float)
    want = psd_check((a * s) @ a.conj().T)
    got = psd_check_factored(a, s)
    assert got.is_psd == want.is_psd
    assert abs(got.min_eigenvalue - want.min_eigenvalue) < 1e-12
    assert got.min_eigenvalue <= 0.0


def test_psd_check_tolerates_roundoff():
    m = np.diag([1.0, -1e-13])
    assert psd_check(m).is_psd


def test_trace_norm_and_distance():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    assert np.isclose(trace_norm(rho - sig), 2.0)
    assert np.isclose(trace_distance(rho, sig), 1.0)
    assert np.isclose(trace_distance(rho, rho), 0.0)


@pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "stack"])
def test_choi_superop_reshuffle_roundtrip(lead):
    """Both reshuffles take leading stack axes, and each matrix of a stack
    goes as it would alone."""
    rng = np.random.default_rng(10)
    shape = lead + (6, 6)  # d_out=2, d_in=3
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = choi_to_superop(c, 3, 2)
    assert s.shape == lead + (4, 9)
    assert np.array_equal(superop_to_choi(s, 3, 2), c)
    for k in np.ndindex(lead):
        assert np.array_equal(superop_to_choi(s[k], 3, 2), c[k])


def test_choi_superop_action_matches_kraus_sum():
    # For E = sum_k K . K^dag the superoperator on row-major vec is
    # sum_k K (x) conj(K), built here without the reshuffle under test.
    rng = np.random.default_rng(11)
    kraus = [rand_matrix(rng, 2) for _ in range(3)]
    choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)
    s = choi_to_superop(choi, 2, 2)
    s_direct = sum(np.kron(k, k.conj()) for k in kraus)
    assert np.allclose(s, s_direct)


# ---------------------------------------------------------------------------
# shape refusals


def _comb2(**stores):
    return Comb(teeth=2, d_sys=2, **stores)


_ENV = {"d_sys": 2, "d_env": 2, "env_init": np.eye(2) / 2, "interactions": (np.eye(4),)}
_TWO_TEETH = markovian_comb([identity_channel(2)] * 2)

SHAPE_REFUSALS = {
    "check_shape": lambda: check_shape(np.eye(3), 2, "input state"),
    "channel_choi": lambda: Channel(choi=np.eye(3), d_in=2, d_out=2),
    "kraus_shapes": lambda: from_kraus([np.eye(2), np.eye(3)]),
    "kraus_vector": lambda: from_kraus([np.ones(2)]),
    "unitary_not_square": lambda: unitary_channel(np.ones((2, 3))),
    "label_letter": lambda: label_index("Q"),
    "pauli_channel_letter": lambda: pauli_channel({"Q": 1.0}),
    "pauli_channel_lengths": lambda: pauli_channel({"I": 0.5, "XX": 0.5}),
    "comb_operator": lambda: _comb2(choi_op=np.eye(8)),
    "comb_factor": lambda: _comb2(factor=(np.ones((8, 2)), np.ones(2))),
    "comb_pauli": lambda: _comb2(pauli=np.ones(4) / 4),
    "comb_chi": lambda: _comb2(chi=np.eye(4)),
    "env_init": lambda: EnvModel(**{**_ENV, "env_init": np.eye(3) / 3}),
    "env_interaction": lambda: EnvModel(**{**_ENV, "interactions": (np.eye(2),)}),
    "markovian_dimensions": lambda: markovian_comb([identity_channel(2), identity_channel(3)]),
    "layer_count": lambda: apply_comb(_TWO_TEETH, [], np.eye(2) / 2),
    "layer_dimension": lambda: apply_comb(_TWO_TEETH, [identity_channel(3)], np.eye(2) / 2),
    "table_key": lambda: PauliDiagTable({("I",): 1.0}, teeth=2, n_qubits=1),
    "table_letter": lambda: PauliDiagTable({("I", "Q"): 1.0}, teeth=2, n_qubits=1),
    "table_vector": lambda: PauliDiagTable(np.ones(4) / 4, teeth=2, n_qubits=1),
    "vcp_copies": lambda: vcp_comb(_TWO_TEETH, markovian_comb([identity_channel(2)]), [],
                                   np.eye(2) / 2),
}


@pytest.mark.parametrize("build", SHAPE_REFUSALS.values(), ids=SHAPE_REFUSALS.keys())
def test_every_shape_refusal_is_a_shape_error(build):
    """Each library check of a shape, dimension or Pauli-label layout raises
    ShapeError, which callers that catch ValueError still catch."""
    with pytest.raises(ShapeError) as info:
        build()
    assert isinstance(info.value, ValueError)


def test_check_unitary_refuses_a_non_square_matrix_before_unitarity():
    with pytest.raises(ShapeError, match=r"unitary must be a square matrix, got shape \(4,\)"):
        check_unitary(np.ones(4), "interaction")
    with pytest.raises(ValueError, match="interaction is not unitary") as info:
        check_unitary(np.diag([np.sqrt(1 + 5e-6), 1.0]), "interaction")
    assert not isinstance(info.value, ShapeError)
    assert check_unitary(np.diag([np.sqrt(1 + 1e-12), 1.0]), "interaction").dtype == complex
