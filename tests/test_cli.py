"""Tests for the command line front end."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcombs import cli, pec
from qcombs.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MARKOVIAN = str(FIXTURES / "markovian_depol.json")
PAULI = str(FIXTURES / "pauli_correlated.json")
ENV = str(FIXTURES / "env_correlated.json")
ENV_RANDOM = str(FIXTURES / "env_random.json")
CHOI = str(FIXTURES / "choi_explicit.json")

ALL_FIXTURES = [MARKOVIAN, PAULI, ENV, ENV_RANDOM, CHOI]
# Test ids name fixtures by file stem, so they do not depend on the checkout's path.
FIXTURE_IDS = [Path(spec).stem for spec in ALL_FIXTURES]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ---------------------------------------------------------------------------
# validate


@pytest.mark.parametrize("spec", ALL_FIXTURES, ids=FIXTURE_IDS)
def test_validate_fixtures(capsys, spec):
    code, doc = run_cli(capsys, "validate", spec)
    assert code == 0
    assert doc["passes"] is True
    assert doc["psd_ok"] is True
    assert doc["trace"] == pytest.approx(doc["expected_trace"], abs=1e-9)


def test_validate_rejects_acausal_comb(capsys):
    spec = json.dumps(
        {
            "kind": "choi_explicit",
            "teeth": 1,
            "d_sys": 2,
            "payload": {"choi_op": [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        }
    )
    code, doc = run_cli(capsys, "validate", spec)
    assert code == 1
    assert doc["passes"] is False
    assert doc["psd_ok"] is True


def test_validate_accepts_inline_markovian(capsys):
    spec = json.dumps(
        {
            "kind": "markovian",
            "payload": {"channels": [{"name": "depolarizing", "p": 0.1}, {"name": "x"}]},
        }
    )
    code, doc = run_cli(capsys, "validate", spec)
    assert code == 0
    assert doc["teeth"] == 2


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_bad_json_file_is_exit_2(capsys):
    assert main(["validate", "/nonexistent/spec.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_inline_json_is_exit_2(capsys):
    assert main(["validate", "{not json"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_kind_is_exit_2(capsys):
    assert main(["validate", '{"kind": "weird"}']) == 2
    assert "unknown spec kind" in capsys.readouterr().err


def test_oracle_requires_env_model_is_exit_2(capsys):
    assert main(["oracle", MARKOVIAN]) == 2
    assert "env_model" in capsys.readouterr().err


def test_wrong_layer_count_is_exit_2(capsys):
    assert main(["pec", MARKOVIAN, "--layer", "h", "--layer", "h"]) == 2
    assert "slot channels" in capsys.readouterr().err


_ONE_TOOTH = {
    "pec": json.dumps({"kind": "markovian", "payload": {"channels": [{"name": "x"}]}}),
    "vcp": json.dumps({"kind": "pauli_correlated", "payload": {"probs": {"I": 0.9, "X": 0.1}}}),
    "oracle": json.dumps({"kind": "env_model", "payload": {
        "d_env": 2, "env_init": [[1, 0], [0, 0]], "interactions": [np.eye(4).tolist()]}}),
}


@pytest.mark.parametrize("command", list(_ONE_TOOTH))
def test_one_layer_on_a_one_tooth_spec_is_exit_2(capsys, command):
    """One --layer fills every slot only when there are two or more; a
    one-tooth spec has no slot, so the layer is one too many."""
    assert main([command, _ONE_TOOTH[command], "--layer", "h"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected 0 slot channels, got 1\n"


@pytest.mark.parametrize(
    "command, spec",
    [("oracle", ENV_RANDOM), ("pec", MARKOVIAN)],
    ids=["oracle-env_random", "pec-markovian_depol"],
)
def test_wrong_layer_dimension_is_exit_2(capsys, command, spec):
    assert main([command, spec, "--layer", json.dumps(np.eye(3).tolist())]) == 2
    err = capsys.readouterr().err
    assert "a slot channel must map the 2-level system to itself, got d_in=3, d_out=3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_non_finite_or_non_positive_tol_is_exit_2(capsys, tol):
    assert main(["--tol", tol, "validate", ENV_RANDOM]) == 2
    captured = capsys.readouterr()
    assert "--tol must be a finite positive number" in captured.err
    assert captured.out == ""


def test_negative_seed_is_exit_2(capsys):
    assert main(["--seed", "-1", "twirl", ENV_RANDOM, "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be a non-negative integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, spec",
    [("pec", MARKOVIAN), ("vcp", PAULI)],
    ids=["pec-markovian_depol", "vcp-pauli_correlated"],
)
def test_unwritable_csv_is_exit_2(capsys, tmp_path, command, spec):
    path = tmp_path / "missing" / "out.csv"
    assert main([command, spec, "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


_NEGATIVE_STATE = "[[0.5, 0.5], [0.5, -0.2]]"
_NOT_POSITIVE = "input state is not Hermitian and positive"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pec", MARKOVIAN, "--input", "[[2, 0], [0, 0]]"], "input state must have unit trace"),
        (["vcp", PAULI, "--input", _NEGATIVE_STATE], _NOT_POSITIVE),
        (["oracle", ENV_RANDOM, "--input", _NEGATIVE_STATE], _NOT_POSITIVE),
        (["oracle", ENV_RANDOM, "--input", "[[0.5, 0.5], [0, 0.5]]"], _NOT_POSITIVE),
        (["pec", MARKOVIAN, "--observable", "[[0, 1], [0, 0]]"], "observable is not Hermitian"),
    ],
    ids=["pec_trace", "vcp_negative", "oracle_negative", "oracle_not_hermitian", "pec_observable"],
)
def test_unphysical_input_or_observable_is_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_non_stochastic_table_is_exit_1(capsys):
    spec = json.dumps(
        {"kind": "pauli_correlated", "payload": {"probs": {"I:I": 0.5, "X:X": 0.3}}}
    )
    assert main(["validate", spec]) == 1
    assert "sum" in capsys.readouterr().err


def test_singular_noise_is_exit_1(capsys):
    spec = json.dumps(
        {"kind": "markovian", "payload": {"channels": [{"name": "depolarizing", "p": 1.0}]}}
    )
    assert main(["pec", spec]) == 1
    assert "singular" in capsys.readouterr().err


def test_zero_transfer_matrix_is_exit_1_with_one_error_line():
    zero = [[0.0] * 16 for _ in range(16)]
    spec = json.dumps({"kind": "choi_explicit", "teeth": 2, "payload": {"choi_op": zero}})
    proc = run_subprocess("pec", spec)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: noise transfer matrix is singular")


def test_pec_rejects_a_comb_that_fails_validation(capsys):
    doc = json.loads(Path(CHOI).read_text())
    doc["payload"]["choi_op"] = (2 * np.array(doc["payload"]["choi_op"])).tolist()
    spec = json.dumps(doc)
    assert main(["pec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: comb fails validation")
    assert main(["validate", spec]) == 1


def test_teeth_mismatch_is_exit_2(capsys):
    spec = json.dumps(
        {
            "kind": "markovian",
            "teeth": 3,
            "payload": {"channels": [{"name": "x"}]},
        }
    )
    assert main(["validate", spec]) == 2


def _spec_without(path, field):
    doc = json.loads(Path(path).read_text())
    del doc["payload"][field]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", _spec_without(ENV_RANDOM, "d_env")),
        ("validate", _spec_without(ENV_RANDOM, "env_init")),
        ("validate", _spec_without(ENV_RANDOM, "interactions")),
        ("validate", _spec_without(MARKOVIAN, "channels")),
        ("validate", _spec_without(PAULI, "probs")),
        ("validate", _spec_without(CHOI, "choi_op")),
        ("twirl", PAULI, "--samples", "-3"),
        ("validate", json.dumps(
            {"kind": "pauli_correlated", "payload": {"probs": {"I:I": 0.5, "X": 0.5}}}
        )),
        ("validate", json.dumps(
            {"kind": "choi_explicit", "teeth": 2, "payload": {"choi_op": np.eye(4).tolist()}}
        )),
    ],
    ids=[
        "no_d_env", "no_env_init", "no_interactions", "no_channels", "no_probs",
        "no_choi_op", "negative_samples", "short_table_key", "wrong_choi_shape",
    ],
)
def test_malformed_spec_is_exit_2(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("prune", ["nan", "inf", "-inf"])
def test_non_finite_prune_is_exit_2_before_printing(capsys, prune):
    assert main(["twirl", ENV_RANDOM, f"--prune={prune}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --prune must be a finite number, got {prune}\n"


@pytest.mark.parametrize("spec", [ENV, ENV_RANDOM], ids=["env_correlated", "env_random"])
def test_vcp_csv_of_a_dilation_is_exit_2_and_writes_nothing(capsys, tmp_path, spec):
    # A dilation has no Pauli table to write.
    path = tmp_path / "table.csv"
    assert main(["vcp", spec, "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --csv writes a Pauli table, and an env_model spec has none\n"
    assert not path.exists()


def _inline(kind, payload, **fields):
    return json.dumps({"kind": kind, **fields, "payload": payload})


_ENV_PAYLOAD = {"d_env": 2, "env_init": [[1, 0], [0, 0]], "interactions": [np.eye(4).tolist()]}

# JSON number literals that json.dumps cannot write: one past the float range
# and an integer of 400 digits.
_HUGE_FLOAT, _HUGE_INT = "1e400", "1" + "0" * 400


def _literal(spec, literal):
    """The spec with its one "@" string replaced by a raw JSON number."""
    assert spec.count('"@"') == 1
    return spec.replace('"@"', literal)


_QUTRITS = _inline("markovian", {"channels": [{"name": "identity", "d": 3}] * 2})
_ONE_CHOI = [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]


@pytest.mark.parametrize(
    "spec, message",
    [
        (_inline("markovian", {"channels": 5}), "channels must be a non-empty list"),
        (_inline("markovian", {"channels": []}), "channels must be a non-empty list"),
        (_inline("markovian", {"channels": [{"kraus": 5}]}), "kraus must be"),
        (_inline("markovian", {"channels": [{"name": 5}]}), "name must be a string"),
        (_inline("markovian", {"channels": [{"name": "depolarizing", "p": [1]}]}),
         "p must be a number"),
        (_inline("markovian", {"channels": [{"name": "pauli", "probs": 5}]}),
         "probs must be a non-empty object"),
        (_inline("pauli_correlated", {"probs": {"X:I": [1]}}), "must be a number"),
        (_inline("env_model", {**_ENV_PAYLOAD, "d_env": "2"}), "d_env must be an integer"),
        (_inline("env_model", {**_ENV_PAYLOAD, "interactions": 5}),
         "interactions must be a non-empty list"),
    ],
    ids=[
        "channels_int", "channels_empty", "kraus_int", "name_int", "depolarizing_p_list",
        "pauli_probs_int", "probability_list", "d_env_string", "interactions_int",
    ],
)
def test_wrong_typed_payload_is_exit_2(capsys, spec, message):
    assert main(["validate", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        (_inline("markovian", {"channels": [{"name": "x"}]}, teeth="two"),
         "teeth must be an integer"),
        (_inline("env_model", {**_ENV_PAYLOAD, "interactions": [np.eye(2).tolist()]}),
         "interaction shape (2, 2) does not match d_sys*d_env = 4"),
        (_inline("env_model", {**_ENV_PAYLOAD, "env_init": [[1]]}),
         "environment state shape (1, 1) does not match d_env = 2"),
        (_inline("pauli_correlated", {"probs": {"Q:I": 1.0}}),
         "bad Pauli label 'Q': not a 1-qubit label over IXYZ"),
        (_inline("markovian", {"channels": [{"name": "pauli", "probs": {"I": 0.5, "Q": 0.5}}]}),
         "bad Pauli label 'Q': not a 1-qubit label over IXYZ"),
        (_inline("pauli_correlated", {"probs": {"X:I": 1.0}}, d_sys=3),
         "dimension 3 is not a power of two; only qubit systems are supported"),
        (_inline("pauli_correlated", {"probs": {"X:I": 1.0}}, d_sys=1),
         "d_sys must be an integer of at least 2, got 1"),
        (_inline("markovian", {"channels": [{"choi": np.eye(3).tolist()}]}),
         "Choi matrix shape (3, 3) does not match d_out*d_in = 4"),
        (_inline("markovian", {"channels": [{"name": "identity", "d": 2},
                                            {"name": "identity", "d": 3}]}),
         "tooth channels must all map one system to itself, got (d_in, d_out) [(2, 2), (3, 3)]"),
        (_inline("markovian", {"channels": [{"kraus": [np.eye(2).tolist(), np.eye(3).tolist()]}]}),
         "Kraus operators must be matrices of one shape, got [(2, 2), (3, 3)]"),
        (_inline("markovian", {"channels": [{"unitary": [[1, 0, 0], [0, 1, 0]]}]}),
         "unitary must be a square matrix"),
        (_inline("markovian", {"channels": [[[1, 0, 0], [0, 1, 0]]]}),
         "unitary must be a square matrix"),
        (_inline("pauli_correlated", {"probs": {"I:I": 1.0, "X:I": float("nan")}}),
         "probability of 'X:I' must be a finite number, got nan"),
        (_inline("env_model", {**_ENV_PAYLOAD, "env_init": [[float("nan"), 0], [0, 0]]}),
         "matrix entry must be a finite number, got nan"),
        (_inline("pauli_correlated", {"probs": {"I:I": float("-inf")}}),
         "probability of 'I:I' must be a finite number, got -inf"),
        *(([command, _QUTRITS], "dimension 3 is not a power of two")
          for command in ("chi", "twirl", "pec", "vcp")),
        (_literal(_inline("choi_explicit", {"choi_op": [["@", 0, 0, 1]] + _ONE_CHOI[1:]},
                          teeth=1), _HUGE_FLOAT),
         "matrix entry must be a finite number, got inf"),
        (_literal(_inline("markovian", {"channels": [{"unitary": [[[0, "@"], 0], [0, 1]]}]}),
                  _HUGE_FLOAT),
         "imaginary part must be a finite number, got inf"),
        (_literal(_inline("env_model", {**_ENV_PAYLOAD, "env_init": [["@", 0], [0, 0]]}),
                  _HUGE_FLOAT),
         "matrix entry must be a finite number, got inf"),
        (_literal(_inline("pauli_correlated", {"probs": {"I:I": "@"}}), _HUGE_FLOAT),
         "probability of 'I:I' must be a finite number, got inf"),
        (_literal(_inline("choi_explicit", {"choi_op": [["@", 0, 0, 1]] + _ONE_CHOI[1:]},
                          teeth=1), _HUGE_INT),
         "matrix entry must be a finite number, got 1000"),
        (_literal(_inline("pauli_correlated", {"probs": {"I:I": "@"}}), _HUGE_INT),
         "probability of 'I:I' must be a finite number, got 1000"),
        (["pec", MARKOVIAN, "--observable", f"[[{_HUGE_INT}, 0], [0, 1]]"],
         "matrix entry must be a finite number, got 1000"),
        (_inline("choi_explicit", {"choi_op": [[True, 0, 0, 1]] + _ONE_CHOI[1:]}, teeth=1),
         "matrix entry must be a number, got True"),
    ],
    ids=[
        "teeth_word", "interaction_shape", "env_init_shape", "table_letter",
        "pauli_channel_letter", "table_d_sys_3", "table_d_sys_1", "choi_size", "mixed_dimensions",
        "kraus_shapes", "unitary_not_square", "bare_matrix_not_square", "table_nan", "env_init_nan",
        "table_minus_infinity", "chi_qutrits", "twirl_qutrits", "pec_qutrits", "vcp_qutrits",
        "choi_overflow", "unitary_overflow", "env_init_overflow", "table_overflow",
        "choi_huge_integer", "table_huge_integer", "observable_huge_integer", "choi_boolean",
    ],
)
def test_malformed_spec_value_is_exit_2(capsys, spec, message):
    """A spec alone is validated; a list is the whole command line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(spec if isinstance(spec, list) else ["validate", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["oracle", "twirl"])
def test_unphysical_environment_state_is_exit_1(capsys, command):
    cx = np.kron(np.eye(2), np.diag([1, 0])) + np.kron([[0, 1], [1, 0]], np.diag([0, 1]))
    spec = json.dumps(
        {
            "kind": "env_model",
            "teeth": 1,
            "d_sys": 2,
            "payload": {"d_env": 2, "env_init": [[2, 0], [0, -1]], "interactions": [cx.tolist()]},
        }
    )
    assert main([command, spec]) == 1
    captured = capsys.readouterr()
    assert "environment state" in captured.err
    assert captured.out == ""


_NOT_TP_CHOI = [[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
_NOT_PSD_CHOI = [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, -1]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["twirl", _inline("markovian", {"channels": [{"choi": _NOT_TP_CHOI}]})],
         "not trace preserving"),
        (["validate", _inline("markovian", {"channels": [{"choi": _NOT_PSD_CHOI}]})],
         "not positive"),
        (["pec", MARKOVIAN, "--layer", json.dumps({"choi": _NOT_TP_CHOI})],
         "not trace preserving"),
        (["oracle", ENV_RANDOM, "--layer", json.dumps({"choi": _NOT_PSD_CHOI})],
         "not positive"),
    ],
    ids=["spec_not_tp", "spec_not_psd", "layer_not_tp", "layer_not_psd"],
)
def test_unphysical_choi_channel_is_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("shots", ["1", "-3"])
def test_pec_bad_shot_count_is_exit_2(capsys, shots):
    assert main(["pec", MARKOVIAN, "--shots", shots]) == 2
    assert "--shots" in capsys.readouterr().err


def test_pec_wrong_size_observable_is_exit_2(capsys):
    eye3 = json.dumps(np.eye(3).tolist())
    assert main(["pec", MARKOVIAN, "--observable", eye3]) == 2
    err = capsys.readouterr().err
    assert "observable shape (3, 3) does not match the system dimension 2" in err
    assert "matmul" not in err


def test_pec_ragged_observable_is_exit_2(capsys):
    assert main(["pec", MARKOVIAN, "--observable", "[[1, 0], [0]]"]) == 2
    assert "equal length" in capsys.readouterr().err


def test_pec_wrong_size_input_is_exit_2(capsys):
    state3 = json.dumps(np.diag([1.0, 0.0, 0.0]).tolist())
    assert main(["pec", MARKOVIAN, "--input", state3]) == 2
    err = capsys.readouterr().err
    assert "input state shape (3, 3) does not match the system dimension 2" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qcombs" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# choi and chi


def test_choi_forms_are_trace_preserving(capsys):
    for form in ("choi", "slot"):
        code, doc = run_cli(capsys, "choi", PAULI, "--form", form)
        assert code == 0
        assert doc["form"] == form
        assert doc["is_trace_preserving"] is True
        assert doc["trace"] == pytest.approx(4.0)
        assert len(doc["choi"]) == 16


def test_chi_of_pauli_fixture(capsys):
    code, doc = run_cli(capsys, "chi", PAULI)
    assert code == 0
    assert doc["diag_sum"] == pytest.approx(1.0)
    assert doc["offdiag_mass"] < 1e-12
    assert len(doc["labels"]) == 16
    chi = np.array([[complex(re, im) for re, im in row] for row in doc["chi"]])
    idx_ii = doc["labels"].index("II")
    idx_xz = doc["labels"].index("XZ")
    assert chi[idx_ii, idx_ii].real == pytest.approx(0.9)
    assert chi[idx_xz, idx_xz].real == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# twirl


def test_twirl_env_fixture_table(capsys):
    code, doc = run_cli(capsys, "twirl", ENV)
    assert code == 0
    assert doc["table"] == pytest.approx({"I:I": 0.5, "X:X": 0.5})
    assert doc["tv_to_product_of_marginals"] == pytest.approx(0.5)
    assert doc["mutual_information_bits"] == pytest.approx(1.0)
    assert doc["samples"] is None


def test_twirl_pauli_fixture_is_fixed_point(capsys):
    code, doc = run_cli(capsys, "twirl", PAULI)
    assert code == 0
    assert doc["table"] == pytest.approx({"I:I": 0.9, "X:Z": 0.1})
    assert doc["marginals"][0] == pytest.approx({"I": 0.9, "X": 0.1, "Y": 0.0, "Z": 0.0})
    assert doc["marginals"][1] == pytest.approx({"I": 0.9, "X": 0.0, "Y": 0.0, "Z": 0.1})


def test_twirl_sampled_reports_sample_count(capsys):
    code, doc = run_cli(capsys, "--seed", "5", "twirl", ENV, "--samples", "128")
    assert code == 0
    assert doc["samples"] == 128
    assert sum(doc["table"].values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# pec


def test_pec_pauli_fixture(capsys):
    code, doc = run_cli(capsys, "pec", PAULI, "--input", "plus", "--observable", "x")
    assert code == 0
    assert doc["gamma"] == pytest.approx(1.25)
    assert doc["corrected"] == pytest.approx(doc["ideal"], abs=1e-10)
    assert doc["ideal"] == pytest.approx(1.0)
    assert abs(doc["noisy"] - doc["ideal"]) > 0.01
    assert doc["sampled"] is None
    assert doc["residual"] < 1e-10


def test_pec_markovian_fixture_gamma(capsys):
    code, doc = run_cli(capsys, "pec", MARKOVIAN)
    assert code == 0
    assert doc["gamma"] == pytest.approx(1.890625, abs=1e-9)
    assert doc["nonzero_terms"] == 16


def test_pec_with_layers_and_shots(capsys):
    code, doc = run_cli(
        capsys,
        "--seed",
        "3",
        "pec",
        MARKOVIAN,
        "--layer",
        "h",
        "--input",
        "zero",
        "--observable",
        "x",
        "--shots",
        "400",
    )
    assert code == 0
    assert doc["ideal"] == pytest.approx(1.0)
    assert doc["corrected"] == pytest.approx(1.0, abs=1e-10)
    sampled = doc["sampled"]
    assert sampled["shots"] == 400
    assert sampled["std_error"] > 0
    assert abs(sampled["estimate"] - doc["ideal"]) < 6 * sampled["std_error"]


def test_pec_with_shots_computes_the_term_table_once(capsys, monkeypatch):
    """The exact value and the sampled estimate come from one table, and
    equal what pec_correct_exact and pec_sample return on a fresh comb."""
    closings, calls = [], []
    table = pec._term_table

    def counting_table(*args):
        closings.append(args)
        return table(*args)

    def recording_exact(*args):
        calls.append(args)
        return pec.pec_correct_exact(*args)

    monkeypatch.setattr(pec, "_term_table", counting_table)
    monkeypatch.setattr(cli, "pec_correct_exact", recording_exact)
    code, doc = run_cli(
        capsys, "--seed", "3", "pec", MARKOVIAN, "--layer", "h", "--observable", "x", "--shots", "400"
    )
    assert code == 0
    assert len(closings) == 1
    [(comb, _, layers, rho, obs)] = calls
    assert closings[0][0] is comb
    # A fresh comb of the same spec remembers no table, so this recomputes it.
    fresh, _, _, _ = cli.load_spec(MARKOVIAN)
    decomp = pec.decompose_inverse(fresh)
    assert doc["corrected"] == pec.pec_correct_exact(fresh, decomp, layers, rho, obs)
    est, se = pec.pec_sample(fresh, decomp, layers, rho, obs, 400, np.random.default_rng(3))
    assert doc["sampled"] == {"estimate": est, "std_error": se, "shots": 400}
    assert len(closings) == 2


def test_pec_csv_output(capsys, tmp_path):
    out = tmp_path / "alpha.csv"
    code, doc = run_cli(capsys, "pec", MARKOVIAN, "--csv", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "op_1,op_2,alpha"
    assert len(lines) == 1 + doc["nonzero_terms"]
    total = sum(abs(float(line.rsplit(",", 1)[1])) for line in lines[1:])
    assert total == pytest.approx(doc["gamma"], abs=1e-9)


# ---------------------------------------------------------------------------
# vcp


def test_vcp_pauli_fixture(capsys):
    code, doc = run_cli(capsys, "vcp", PAULI, "--input", "plus")
    assert code == 0
    assert doc["twirled_first"] is False
    assert doc["p_gap"] == pytest.approx(0.82, abs=1e-10)
    assert doc["p_plus"] + doc["p_minus"] == pytest.approx(1.0, abs=1e-10)
    errs = doc["reference_errors"]
    assert errs["virtual"] < 1e-10
    assert errs["physical"] < 1e-10


def test_vcp_twirls_non_pauli_specs_first(capsys):
    code, doc = run_cli(capsys, "vcp", MARKOVIAN)
    assert code == 0
    assert doc["twirled_first"] is True
    p_tooth = 0.85**2 + 3 * 0.05**2
    assert doc["p_gap"] == pytest.approx(p_tooth**2, abs=1e-9)


def test_vcp_with_explicit_second_copy(capsys):
    code, base = run_cli(capsys, "vcp", ENV)
    code2, with2 = run_cli(capsys, "vcp", ENV, "--spec2", ENV)
    assert code == code2 == 0
    assert with2["p_gap"] == pytest.approx(base["p_gap"], abs=1e-12)
    assert with2["reference_errors"] is None


def test_vcp_rejects_markovian_second_copy(capsys):
    assert main(["vcp", PAULI, "--spec2", MARKOVIAN]) == 2
    assert "--spec2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "teeth, d_sys, probs",
    [(3, 2, {"I:I:I": 0.8, "X:Z:Y": 0.2}), (2, 4, {"II:II": 0.9, "XI:ZZ": 0.1})],
)
def test_vcp_second_copy_of_another_shape_is_exit_2(capsys, tmp_path, teeth, d_sys, probs):
    spec2 = tmp_path / "other.json"
    spec2.write_text(
        json.dumps(
            {"kind": "pauli_correlated", "teeth": teeth, "d_sys": d_sys, "payload": {"probs": probs}}
        )
    )
    assert main(["vcp", PAULI, "--spec2", str(spec2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the two copies must describe the same process shape\n"


def test_vcp_csv_output(capsys, tmp_path):
    out = tmp_path / "table.csv"
    code, _ = run_cli(capsys, "vcp", PAULI, "--csv", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tooth_1,tooth_2,prob,virtual_weight,physical_weight"
    assert len(lines) == 3
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["tooth_1"] == "I" and row["tooth_2"] == "I"
    assert float(row["prob"]) == pytest.approx(0.9)
    assert float(row["virtual_weight"]) == pytest.approx(0.81 / 0.82)
    assert float(row["physical_weight"]) == pytest.approx((0.9 + 0.81) / 1.82)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_cross_check(capsys):
    code, doc = run_cli(capsys, "oracle", ENV_RANDOM, "--layer", "h", "--input", "plus_i")
    assert code == 0
    assert doc["max_difference"] < 1e-12
    direct = np.array(
        [[complex(re, im) for re, im in row] for row in doc["output_state"]]
    )
    assert np.trace(direct).real == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# determinism across processes


def child_env(**extra):
    """The environment for a child process, with ``src`` on its import path."""
    env = {**os.environ, **extra}
    src = str(FIXTURES.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qcombs.cli", *argv],
        capture_output=True,
        cwd=str(FIXTURES.parent),
        env=child_env(),
    )


def test_sampling_commands_are_byte_identical_across_runs():
    for argv in (
        ("--seed", "3", "pec", MARKOVIAN, "--shots", "200"),
        ("--seed", "7", "twirl", ENV, "--samples", "64"),
    ):
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.returncode == 0, first.stderr.decode()
        assert first.stdout == second.stdout
        assert first.stdout  # not empty


def test_twirl_bytes_do_not_depend_on_hash_seed():
    outputs = []
    for hash_seed in ("0", "1", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "qcombs.cli", "twirl", ENV_RANDOM],
            capture_output=True,
            cwd=str(FIXTURES.parent),
            env=child_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_default_seed_makes_repeat_runs_identical():
    first = run_subprocess("pec", PAULI, "--shots", "50")
    second = run_subprocess("pec", PAULI, "--shots", "50")
    assert first.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array"),
     "error: Unable to allocate 74.5 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_out_of_memory_is_one_error_line_and_exit_1(capsys, monkeypatch, exc, message):
    def exhausted(arg):
        raise exc

    monkeypatch.setattr(cli, "load_spec", exhausted)
    assert main(["validate", MARKOVIAN]) == 1
    assert capsys.readouterr() == ("", message)


def test_closed_stdout_exits_1_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcombs.cli", "chi", MARKOVIAN],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(FIXTURES.parent),
        env=child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err
