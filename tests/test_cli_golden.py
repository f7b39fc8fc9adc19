"""Byte-for-byte CLI outputs against the committed files under ``tests/golden``.

Each case runs ``python -m qcombs.cli`` as a fresh process from the
repository root, so the argv reads exactly as a user types it.  A case's
stdout must equal ``<name>.out``, and its stderr ``<name>.err`` when that
file exists (empty otherwise).  To regenerate after an intended change
of output, run this module as a script: ``python tests/test_cli_golden.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (expected exit code, argv after ``qcombs``).
CASES = {
    "validate": (0, ("validate", "fixtures/env_correlated.json")),
    "validate_env_random": (0, ("validate", "fixtures/env_random.json")),
    "choi": (0, ("choi", "fixtures/pauli_correlated.json", "--form", "slot")),
    "chi": (0, ("chi", "fixtures/pauli_correlated.json")),
    "twirl": (0, ("twirl", "fixtures/env_random.json")),
    "twirl_samples": (0, ("--seed", "5", "twirl", "fixtures/env_random.json",
                          "--samples", "200")),
    "pec": (0, ("--seed", "9", "pec", "fixtures/markovian_depol.json",
                "--layer", "h", "--observable", "x", "--shots", "1000")),
    "vcp": (0, ("vcp", "fixtures/pauli_correlated.json", "--input", "plus")),
    "oracle": (0, ("oracle", "fixtures/env_random.json", "--layer", "h")),
    "pec_env_correlated": (1, ("pec", "fixtures/env_correlated.json")),
    "pec_choi_explicit": (0, ("pec", "fixtures/choi_explicit.json")),
    "pec_env_random": (0, ("pec", "fixtures/env_random.json")),
    "vcp_env_correlated": (0, ("vcp", "fixtures/env_correlated.json")),
    "vcp_env_random": (0, ("vcp", "fixtures/env_random.json")),
}


def run(argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qcombs.cli", *argv],
                          capture_output=True, cwd=ROOT, env=env)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden_bytes(name):
    code, argv = CASES[name]
    proc = run(argv)
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
    err = GOLDEN / f"{name}.err"
    assert proc.stderr == (err.read_bytes() if err.exists() else b"")


def _numbers(doc, path=""):
    """Every number of a JSON document, keyed by its path."""
    if isinstance(doc, dict):
        return {k: v for key, item in doc.items() for k, v in _numbers(item, f"{path}/{key}").items()}
    if isinstance(doc, list):
        return {k: v for i, item in enumerate(doc) for k, v in _numbers(item, f"{path}/{i}").items()}
    return {path: doc}


def test_sampled_twirl_prints_the_exact_twirls_numbers():
    """A frame multiplies each diagonal entry of the process matrix by a
    squared sign, so however many frames are drawn, the sampled table and
    every number read from it are the exact twirl's."""
    exact = json.loads((GOLDEN / "twirl.out").read_text())
    sampled = json.loads((GOLDEN / "twirl_samples.out").read_text())
    assert (exact.pop("samples"), sampled.pop("samples")) == (None, 200)
    keys = ("table", "marginals", "mutual_information_bits", "tv_to_product_of_marginals")
    assert set(exact) == set(sampled) and set(keys) <= set(exact)
    want, got = _numbers(exact), _numbers(sampled)
    assert want.keys() == got.keys()
    assert all(abs(got[k] - want[k]) <= 1e-14 for k in want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, argv) in CASES.items():
        proc = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(proc.stdout)
        if proc.stderr:
            (GOLDEN / f"{name}.err").write_bytes(proc.stderr)
