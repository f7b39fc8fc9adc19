"""End-to-end acceptance checks.

Each test function covers one shipped guarantee, so ``pytest -v`` on
this module prints one pass/fail line per guarantee.  Tolerances are
part of the contract and are asserted literally.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dense_reference import apply_channel_on, max_entangled, permutation_matrix, trace_distance
from qcombs.channels import (
    apply,
    compose,
    depolarizing_channel,
    identity_channel,
    pauli_channel,
    random_channel,
    random_density_matrix,
    random_unitary,
    to_chi,
    unitary_channel,
)
from qcombs.combs import (
    EnvModel,
    apply_comb,
    choi_channel,
    comb_chi,
    comb_from_env_model,
    markovian_comb,
    random_env_model,
    simulate_env_model,
    slot_channel,
    validate_comb,
)
from qcombs.linalg import partial_trace, tensor
from qcombs.pauli import pauli_labels
from qcombs.pec import decompose_inverse, pec_correct_exact, pec_sample
from qcombs.twirl import (
    PauliDiagTable,
    apply_correlated_pauli,
    comb_from_pauli_table,
    env_model_from_pauli_table,
    extract_pauli_diag,
    product_of_marginals,
    tv_distance,
    twirl_comb,
)
from qcombs.vcp import reference_purified, vcp_channel, vcp_comb

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Z = np.diag([1.0, -1.0]).astype(complex)


def load_env_fixture(name):
    doc = json.loads((FIXTURES / name).read_text())
    payload = doc["payload"]

    def dec(rows):
        return np.array(
            [[complex(*x) if isinstance(x, list) else complex(x) for x in row] for row in rows]
        )

    return EnvModel(
        d_sys=doc.get("d_sys", 2),
        d_env=payload["d_env"],
        env_init=dec(payload["env_init"]),
        interactions=tuple(dec(u) for u in payload["interactions"]),
    )


def chi_diag_table(comb):
    diag = np.real(np.diag(comb_chi(comb)))
    n = 1
    probs = {}
    for a, lbl in enumerate(pauli_labels(n * comb.teeth)):
        key = tuple(lbl[m * n : (m + 1) * n] for m in range(comb.teeth))
        probs[key] = float(diag[a])
    return PauliDiagTable(probs=probs, teeth=comb.teeth, n_qubits=n)


def random_table(rng, teeth, entries):
    labels = ["I", "X", "Y", "Z"]
    keys = set()
    while len(keys) < entries:
        keys.add(tuple(rng.choice(labels) for _ in range(teeth)))
    raw = rng.random(entries) + 0.05
    raw /= raw.sum()
    return PauliDiagTable(
        probs={k: float(p) for k, p in zip(sorted(keys), raw)},
        teeth=teeth,
        n_qubits=1,
    )


def test_criterion_1_master_oracle_equivalence():
    # 100 seeded random dilations, one qubit each for system and
    # environment, two teeth: the comb contraction must agree with the
    # direct density-matrix simulation to 1e-10 trace distance, and the
    # whole sweep must finish within ten seconds.
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        model = random_env_model(teeth=2, rng=rng)
        comb = comb_from_env_model(model)
        layer = unitary_channel(random_unitary(2, rng))
        rho = random_density_matrix(2, rng)
        via_comb = apply_comb(comb, [layer], rho)
        direct = simulate_env_model(model, [layer], rho)
        worst = max(worst, trace_distance(via_comb, direct))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed <= 10.0


def test_criterion_2_choi_slot_consistency():
    # The slot form is the channel form with its output registers
    # cyclically relabelled, and feeding it the Choi state of the slot
    # content reproduces the closed dynamics.
    for teeth in (2, 3):
        rng = np.random.default_rng(100 + teeth)
        comb = comb_from_env_model(random_env_model(teeth, rng=rng))
        d = comb.d_sys
        cyc = permutation_matrix([d] * teeth, [teeth - 1] + list(range(teeth - 1)))
        via_compose = compose(unitary_channel(cyc), choi_channel(comb))
        frob = np.linalg.norm(slot_channel(comb).choi - via_compose.choi)
        assert frob <= 1e-12

    rng = np.random.default_rng(200)
    for _ in range(10):
        comb = comb_from_env_model(random_env_model(2, rng=rng))
        v = random_channel(2, rng=rng)
        rho = random_density_matrix(2, rng)
        d = comb.d_sys
        s = slot_channel(comb)
        phi = np.outer(max_entangled(d), max_entangled(d).conj())
        x = tensor(rho, v.choi)
        y = apply_channel_on(x, [d, d, d], [0, 1], s)
        glued = partial_trace(y @ tensor(np.eye(d), phi), [d, d, d], keep=[0])
        assert np.abs(glued - apply_comb(comb, [v], rho)).max() <= 1e-10


def test_criterion_3_twirl_matches_diagonal_formula():
    # For 50 random combs the twirled process must act exactly like the
    # classical Pauli table read off the untwirled process matrix
    # diagonal, the twirled process matrix must be diagonal, and
    # twirling twice must change nothing.
    rng = np.random.default_rng(300)
    for _ in range(50):
        comb = comb_from_env_model(random_env_model(2, rng=rng))
        layer = unitary_channel(random_unitary(2, rng))
        rho = random_density_matrix(2, rng)
        twirled = twirl_comb(comb)

        table = chi_diag_table(comb)
        via_formula = apply_correlated_pauli(table, [layer], rho)
        via_twirl = apply_comb(twirled, [layer], rho)
        assert trace_distance(via_twirl, via_formula) <= 1e-9

        chi = comb_chi(twirled)
        off_mass = np.abs(chi).sum() - np.abs(np.diag(chi)).sum()
        assert off_mass <= 1e-10

        again = twirl_comb(twirled)
        assert np.linalg.norm(again.choi_op - twirled.choi_op) <= 1e-11


def test_criterion_4_classical_correlation_witness():
    # The shipped environment-mediated fixture must twirl to a table
    # that is visibly not a product of its marginals.
    model = load_env_fixture("env_correlated.json")
    comb = comb_from_env_model(model)
    table = extract_pauli_diag(twirl_comb(comb))
    tv = tv_distance(table, product_of_marginals(table))
    assert tv >= 0.05
    # The fixture is maximally correlated; freeze its actual value too.
    assert tv == pytest.approx(0.5, abs=1e-10)


def test_criterion_5_pec_cancellation():
    # 50 random invertible combs at moderate coupling: the reweighted
    # expectation must equal the noiseless one to 1e-8, the sampling
    # cost never drops below one, and the identity comb costs exactly
    # one.
    rng = np.random.default_rng(500)
    for _ in range(50):
        model = random_env_model(teeth=2, rng=rng, interaction_strength=0.4)
        comb = comb_from_env_model(model)
        decomp = decompose_inverse(comb)
        assert decomp.gamma >= 1.0 - 1e-12
        assert decomp.gamma <= 10.0
        layer = random_channel(2, rng=rng)
        rho = random_density_matrix(2, rng)
        ideal = np.trace(Z @ apply(layer, rho)).real
        got = pec_correct_exact(comb, decomp, [layer], rho, Z)
        assert abs(got - ideal) <= 1e-8

    identity = markovian_comb([identity_channel(2), identity_channel(2)])
    assert decompose_inverse(identity).gamma == 1.0


def test_criterion_6_pec_sampling_statistics():
    # The sampled estimate at 1e5 shots must land within four reported
    # standard errors of the exact value in at least 95 of 100 seeded
    # runs, and the reported error must scale as 1/sqrt(shots).
    comb = markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.3)])
    decomp = decompose_inverse(comb)
    layer = identity_channel(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    truth = pec_correct_exact(comb, decomp, [layer], rho, Z)

    hits = 0
    for seed in range(100):
        est, se = pec_sample(
            comb, decomp, [layer], rho, Z, shots=10**5, rng=np.random.default_rng(seed)
        )
        if abs(est - truth) <= 4 * se:
            hits += 1
    assert hits >= 95

    for seed in (0, 1, 2):
        errs = []
        for shots in (10**3, 10**4, 10**5):
            _, se = pec_sample(
                comb, decomp, [layer], rho, Z, shots=shots, rng=np.random.default_rng(seed)
            )
            errs.append(se)
        slope = np.polyfit(np.log10([10**3, 10**4, 10**5]), np.log10(errs), 1)[0]
        assert abs(slope - (-0.5)) <= 0.05


def test_criterion_7_purification_formulas():
    # 20 Pauli-diagonal two-tooth processes, the shipped 0.9/0.1 table
    # first: the virtual output must carry the squared-renormalized
    # weights, the + branch the mixed weights, the probability gap must
    # equal the collision probability, and a dominant component never
    # loses weight.  The channel-level protocol squares single Pauli
    # channels the same way.
    rng = np.random.default_rng(700)
    tables = [
        PauliDiagTable(probs={("I", "I"): 0.9, ("X", "Z"): 0.1}, teeth=2, n_qubits=1)
    ]
    tables += [random_table(rng, 2, int(rng.integers(2, 6))) for _ in range(19)]

    for table in tables:
        model = env_model_from_pauli_table(table)
        layer = random_channel(2, rng=rng)
        rho = random_density_matrix(2, rng)
        res = vcp_comb(model, model, [layer], rho)
        ref_v = reference_purified(table, [layer], rho, "virtual")
        ref_p = reference_purified(table, [layer], rho, "physical")
        assert trace_distance(res.virtual_state, ref_v) <= 1e-8
        assert trace_distance(res.physical_state, ref_p) <= 1e-8
        p2 = sum(p * p for p in table.probs.values())
        assert abs(res.p_gap - p2) <= 1e-10

        p_max = max(table.probs.values())
        assert p_max * p_max / p2 >= p_max - 1e-12
        assert (p_max + p_max * p_max) / (1 + p2) >= p_max - 1e-12

    for _ in range(10):
        raw = rng.random(4) + 0.05
        raw /= raw.sum()
        probs = dict(zip("IXYZ", raw))
        noise = pauli_channel(probs)
        rho = random_density_matrix(2, rng)
        res = vcp_channel(noise, rho)
        table = PauliDiagTable(
            probs={(k,): float(v) for k, v in probs.items()}, teeth=1, n_qubits=1
        )
        ref = reference_purified(table, [], rho, "virtual")
        assert trace_distance(res.virtual_state, ref) <= 1e-9


def test_criterion_8_normalization_suite():
    # Process matrices of trace-preserving maps sum to one on the
    # diagonal, for single channels and for whole combs, and every comb
    # constructed here passes validation, all within 1e-10.
    rng = np.random.default_rng(800)
    channels = [
        depolarizing_channel(0.3),
        pauli_channel({"I": 0.7, "X": 0.2, "Z": 0.1}),
        unitary_channel(random_unitary(2, rng)),
        random_channel(2, rng=rng),
        random_channel(4, rng=rng),
    ]
    for ch in channels:
        chi = to_chi(ch)
        assert abs(np.trace(chi).real - 1.0) <= 1e-10

    combs = [
        comb_from_env_model(random_env_model(2, rng=rng)),
        comb_from_env_model(random_env_model(3, rng=rng)),
        comb_from_env_model(load_env_fixture("env_correlated.json")),
        markovian_comb([depolarizing_channel(0.2), depolarizing_channel(0.2)]),
        comb_from_pauli_table(
            PauliDiagTable(probs={("I", "I"): 0.9, ("X", "Z"): 0.1}, teeth=2, n_qubits=1)
        ),
    ]
    for comb in combs:
        diag_sum = np.real(np.diag(comb_chi(comb))).sum()
        assert abs(diag_sum - 1.0) <= 1e-10
        assert validate_comb(comb).passes


def test_criterion_9_cli_determinism():
    # Every subcommand, run twice with identical arguments and the
    # default or an explicit seed, must print identical bytes.
    fixtures = {
        "pauli": str(FIXTURES / "pauli_correlated.json"),
        "env": str(FIXTURES / "env_correlated.json"),
        "env_random": str(FIXTURES / "env_random.json"),
        "markovian": str(FIXTURES / "markovian_depol.json"),
    }
    invocations = [
        ("validate", fixtures["pauli"]),
        ("choi", fixtures["pauli"], "--form", "slot"),
        ("chi", fixtures["pauli"]),
        ("--seed", "7", "twirl", fixtures["env"], "--samples", "64"),
        ("--seed", "3", "pec", fixtures["markovian"], "--shots", "200"),
        ("vcp", fixtures["pauli"]),
        ("oracle", fixtures["env_random"], "--layer", "h"),
    ]
    # The child imports qcombs from this checkout's src, as pytest does.
    src = str(FIXTURES.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qcombs.cli", *argv], capture_output=True, env=env
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr.decode()
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
