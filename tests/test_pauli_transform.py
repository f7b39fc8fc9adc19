"""The tooth-by-tooth Pauli sandwiches of combs and channels against the dense basis."""

import numpy as np
import pytest

import dense_reference as ref
from qcombs.channels import Channel, random_channel, to_chi, to_ptm
from qcombs.combs import (
    choi_channel,
    comb_chi,
    comb_from_chi,
    comb_from_env_model,
    markovian_comb,
    random_env_model,
)
from qcombs.linalg import choi_to_superop
from qcombs.pauli import tooth_ptm

# (teeth, system qubits, interaction strength; None is Haar).
DILATIONS = [(m, 1, s) for m in (1, 2, 3, 4) for s in (0.3, None)] + [(5, 1, 0.3)] + [
    (m, 2, s) for m in (1, 2) for s in (0.3, None)
]


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _comb(m, n_sys, strength):
    rng = np.random.default_rng(3000 + 10 * m + n_sys)
    model = random_env_model(m, n_sys_qubits=n_sys, rng=rng, interaction_strength=strength)
    return comb_from_env_model(model, validate=False)


def _one_tooth_choi(chi, d):
    """``B chi B^dag`` through the one-tooth comb, whose channel form is the channel."""
    return choi_channel(comb_from_chi(chi, 1, d)).choi


def _assert_transforms_match(choi, d):
    channel = Channel(choi=choi, d_in=d, d_out=d)
    chi = ref.chi_from_choi(choi)
    assert_close(to_chi(channel), chi)
    assert_close(_one_tooth_choi(chi, d), ref.choi_from_chi(chi))
    tooth = markovian_comb([channel])
    assert_close(comb_chi(tooth), chi)
    ptm = ref.ptm_from_superop(choi_to_superop(choi, d, d))
    assert_close(to_ptm(channel), ptm)
    assert_close(tooth_ptm(tooth.choi_op, 1, tooth.d_sys), ptm)


@pytest.mark.parametrize("m, n_sys, strength", DILATIONS)
def test_channel_form_transforms_match_dense_basis(m, n_sys, strength):
    comb = _comb(m, n_sys, strength)
    channel = choi_channel(comb)
    _assert_transforms_match(channel.choi, channel.d_in)


@pytest.mark.parametrize("m, n_sys, strength", DILATIONS)
def test_comb_views_match_dense_basis(m, n_sys, strength):
    comb = _comb(m, n_sys, strength)
    channel = choi_channel(comb)
    chi = ref.chi_from_choi(channel.choi)
    assert_close(comb_chi(comb), chi)
    assert_close(choi_channel(comb_from_chi(chi, m, comb.d_sys)).choi, ref.choi_from_chi(chi))
    superop = choi_to_superop(channel.choi, channel.d_in, channel.d_out)
    assert_close(to_ptm(channel), ref.ptm_from_superop(superop))
    assert_close(tooth_ptm(comb.choi_op, m, comb.d_sys), ref.ptm_from_superop(superop))
    assert_close(comb_from_chi(comb_chi(comb), m, comb.d_sys).choi_op, comb.choi_op)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_channel_transforms_match_dense_basis(n):
    rng = np.random.default_rng(40 + n)
    _assert_transforms_match(random_channel(2**n, rng=rng).choi, 2**n)
    # Any complex matrix, so no symmetry of a channel hides an index mix-up.
    g = rng.standard_normal((4**n, 4**n)) + 1j * rng.standard_normal((4**n, 4**n))
    channel = Channel(choi=g, d_in=2**n, d_out=2**n)
    assert_close(to_chi(channel), ref.chi_from_choi(g))
    assert_close(to_ptm(channel), ref.ptm_from_superop(choi_to_superop(g, 2**n, 2**n)))
    assert_close(_one_tooth_choi(g, 2**n), ref.choi_from_chi(g))
