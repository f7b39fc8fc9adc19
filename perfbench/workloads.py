"""Workload inputs, tasks and correctness checks for the qcombs benchmark.

Each workload has three parts:

* ``make_inputs(seed)`` builds a small pool of inputs from the workload
  seed.  Everything random is drawn here; tasks never see the seed.
* ``run(layers, inp)`` is one task: one user analysis (library
  workloads) or one command-line invocation (``cli``).  It calls the
  package only through ``layers`` so that a traced run can time those
  calls without touching the package.
* ``check(inp, out, state)`` returns a list of problems; an empty list
  means the task's outputs are correct.  A task fails when it raises or
  when its check reports a problem.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the package under test is always the one next to the
benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qcombs  # noqa: E402
from qcombs import channels, combs, pec, twirl, vcp  # noqa: E402

# --- sizes -----------------------------------------------------------------

CHAR_TEETH = 3          # characterize: Haar dilations, M=3, 1 env qubit
CHAR_FRAMES = 64        # sampled_twirl frames, about the exact twirl's cost
CANCEL_TEETH = 3        # cancel: weak dilations, M=3, 1 env qubit
CANCEL_STRENGTH = 0.3
CANCEL_SHOTS = 10_000
DILATE_TEETH = 4        # dilate: weak dilations, M=4, 1 env qubit
DILATE_CLOSURES = 12    # apply_comb closures checked against the oracle
DILATE_TABLE_ENTRIES = 5  # entries of the sparse 4-tooth Pauli table
POOL = 4                # distinct inputs per library workload

TOL_ORACLE = 1e-9
TOL_PEC = 1e-8
TOL_VCP = 1e-9
TOL_TABLE = 1e-12
SAMPLE_SIGMAS = 8.0     # sampled estimates must sit within this many errors

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PAULIS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pure_state(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# --- characterize ----------------------------------------------------------


@dataclass(frozen=True)
class CharInput:
    model: combs.EnvModel
    frame_seed: int


def characterize_inputs(seed: int) -> list[CharInput]:
    rng = np.random.default_rng(seed)
    return [
        CharInput(
            model=combs.random_env_model(CHAR_TEETH, n_env_qubits=1, rng=rng),
            frame_seed=int(rng.integers(2**31)),
        )
        for _ in range(POOL)
    ]


def characterize_run(L: Layers, inp: CharInput) -> dict:
    comb = L.combs.comb_from_env_model(inp.model, validate=False)
    report = L.combs.validate_comb(comb)
    table = L.twirl.extract_pauli_diag(L.twirl.twirl_comb(comb))
    margs = L.twirl.marginals(table)
    tv = L.twirl.tv_distance(table, L.twirl.product_of_marginals(table))
    sampled = L.twirl.sampled_twirl(comb, CHAR_FRAMES, np.random.default_rng(inp.frame_seed))
    sampled_table = L.twirl.extract_pauli_diag(sampled, max_offdiag_mass=None)
    return {
        "report": report,
        "table": table.probs,
        "marginals": margs,
        "tv": tv,
        "sampled_table": sampled_table.probs,
    }


def _product_tv(probs: dict, margs: list) -> float:
    """TV distance from a table to the product of its marginals, in key order."""
    keys = sorted(set(probs) | set(itertools.product(*margs)))
    return 0.5 * sum(
        abs(probs.get(k, 0.0) - math.prod(m[lbl] for m, lbl in zip(margs, k))) for k in keys
    )


def characterize_check(inp: CharInput, out: dict, state=None) -> list[str]:
    problems = []
    if not out["report"].passes:
        problems.append(f"validate_comb fails: {out['report']}")
    probs = out["table"]
    if len(probs) != 4**CHAR_TEETH:
        problems.append(f"twirled table has {len(probs)} entries")
    if abs(sum(probs.values()) - 1.0) > TOL_TABLE or min(probs.values()) < 0.0:
        problems.append("twirled table is not a probability distribution")
    for m, marg in enumerate(out["marginals"]):
        if abs(sum(marg.values()) - 1.0) > TOL_TABLE:
            problems.append(f"marginal {m} does not sum to 1")
    tv_ref = _product_tv(probs, out["marginals"])
    if not abs(out["tv"] - tv_ref) <= TOL_TABLE:
        problems.append(f"tv distance {out['tv']!r} differs from {tv_ref!r}")
    # Conjugating by Pauli frames leaves the process-matrix diagonal
    # unchanged, so any number of frames reads off the exact table.
    sampled = out["sampled_table"]
    if set(sampled) != set(probs) or max(abs(sampled[k] - probs[k]) for k in probs) > TOL_ORACLE:
        problems.append("sampled twirl table differs from the exact one")
    return problems


# --- cancel ----------------------------------------------------------------


@dataclass(frozen=True)
class CancelInput:
    model: combs.EnvModel
    layers: tuple
    rho: np.ndarray
    observable: np.ndarray
    ideal: float
    shot_seed: int


def cancel_inputs(seed: int) -> list[CancelInput]:
    rng = np.random.default_rng(seed)
    hadamard = channels.unitary_channel(_H)
    out = []
    for _ in range(POOL):
        model = combs.random_env_model(
            CANCEL_TEETH, n_env_qubits=1, rng=rng, interaction_strength=CANCEL_STRENGTH
        )
        rho = _pure_state(rng)
        obs = _PAULIS["xyz"[int(rng.integers(3))]]
        ideal = rho
        for _ in range(CANCEL_TEETH - 1):
            ideal = _H @ ideal @ _H.conj().T
        out.append(
            CancelInput(
                model=model,
                layers=(hadamard,) * (CANCEL_TEETH - 1),
                rho=rho,
                observable=obs,
                ideal=float(np.trace(obs @ ideal).real),
                shot_seed=int(rng.integers(2**31)),
            )
        )
    return out


def cancel_run(L: Layers, inp: CancelInput) -> dict:
    comb = L.combs.comb_from_env_model(inp.model, validate=False)
    decomp = L.pec.decompose_inverse(comb)
    exact = L.pec.pec_correct_exact(comb, decomp, inp.layers, inp.rho, inp.observable)
    estimate, std_error = L.pec.pec_sample(
        comb, decomp, inp.layers, inp.rho, inp.observable, CANCEL_SHOTS,
        np.random.default_rng(inp.shot_seed),
    )
    return {
        "gamma": decomp.gamma,
        "nonzero_terms": int(np.count_nonzero(decomp.alpha)),
        "exact": exact,
        "estimate": estimate,
        "std_error": std_error,
    }


def cancel_check(inp: CancelInput, out: dict, state=None) -> list[str]:
    problems = []
    if not abs(out["exact"] - inp.ideal) <= TOL_PEC:
        problems.append(f"exact corrected value {out['exact']!r} is not the ideal {inp.ideal!r}")
    if not (out["std_error"] > 0.0 and abs(out["estimate"] - out["exact"]) <= SAMPLE_SIGMAS * out["std_error"]):
        problems.append(
            f"sampled estimate {out['estimate']!r} +- {out['std_error']!r} "
            f"misses the exact value {out['exact']!r}"
        )
    if not (out["gamma"] >= 1.0 and out["nonzero_terms"] > 0):
        problems.append(f"implausible decomposition: gamma {out['gamma']!r}")
    return problems


# --- dilate ----------------------------------------------------------------


@dataclass(frozen=True)
class DilateInput:
    model: combs.EnvModel
    closures: tuple          # (slot channels, input state) pairs
    table: twirl.PauliDiagTable
    pointer: combs.EnvModel  # pointer dilation of ``table``
    vcp_layers: tuple
    vcp_rho: np.ndarray


def _sparse_table(rng) -> twirl.PauliDiagTable:
    keys = set()
    while len(keys) < DILATE_TABLE_ENTRIES:
        keys.add(tuple("IXYZ"[int(a)] for a in rng.integers(4, size=DILATE_TEETH)))
    keys = sorted(keys)
    weights = rng.uniform(0.05, 1.0, size=len(keys))
    weights[0] += 2.0  # one dominant entry, as for weak noise
    return twirl.PauliDiagTable(
        probs=dict(zip(keys, weights / weights.sum())), teeth=DILATE_TEETH, n_qubits=1
    )


def _slot_channel(rng) -> channels.Channel:
    if rng.random() < 0.5:
        return channels.unitary_channel(channels.random_unitary(2, rng))
    return channels.random_channel(2, 2, rng=rng)


def dilate_inputs(seed: int) -> list[DilateInput]:
    rng = np.random.default_rng(seed)
    out = []
    slots = DILATE_TEETH - 1
    for _ in range(POOL):
        model = combs.random_env_model(
            DILATE_TEETH, n_env_qubits=1, rng=rng,
            interaction_strength=float(rng.uniform(0.1, 0.6)),
        )
        closures = tuple(
            (tuple(_slot_channel(rng) for _ in range(slots)), channels.random_density_matrix(2, rng))
            for _ in range(DILATE_CLOSURES)
        )
        table = _sparse_table(rng)
        out.append(
            DilateInput(
                model=model,
                closures=closures,
                table=table,
                pointer=twirl.env_model_from_pauli_table(table),
                vcp_layers=tuple(
                    channels.unitary_channel(channels.random_unitary(2, rng)) for _ in range(slots)
                ),
                vcp_rho=channels.random_density_matrix(2, rng),
            )
        )
    return out


def dilate_run(L: Layers, inp: DilateInput) -> dict:
    comb = L.combs.comb_from_env_model(inp.model, validate=False)
    report = L.combs.validate_comb(comb)
    closed = [
        (L.combs.apply_comb(comb, layers, rho), L.combs.simulate_env_model(inp.model, layers, rho))
        for layers, rho in inp.closures
    ]
    res = L.vcp.vcp_comb(inp.pointer, inp.pointer, inp.vcp_layers, inp.vcp_rho)
    return {
        "report": report,
        "closed": closed,
        "virtual": res.virtual_state,
        "physical": res.physical_state,
        "ref_virtual": L.vcp.reference_purified(inp.table, inp.vcp_layers, inp.vcp_rho, "virtual"),
        "ref_physical": L.vcp.reference_purified(inp.table, inp.vcp_layers, inp.vcp_rho, "physical"),
    }


def dilate_check(inp: DilateInput, out: dict, state=None) -> list[str]:
    problems = []
    if not out["report"].passes:
        problems.append(f"validate_comb fails: {out['report']}")
    for k, (via_comb, direct) in enumerate(out["closed"]):
        err = float(np.abs(via_comb - direct).max())
        if not err <= TOL_ORACLE:
            problems.append(f"closure {k}: apply_comb differs from the oracle by {err:.3e}")
    for which in ("virtual", "physical"):
        err = float(np.abs(out[which] - out[f"ref_{which}"]).max())
        if not err <= TOL_VCP:
            problems.append(f"vcp {which} state differs from the reference by {err:.3e}")
    return problems


# --- cli -------------------------------------------------------------------

# Hash seeds every invocation runs under.  Outputs must be byte-identical
# across them; 0 and 1 split the exact twirl of env_random.json at the
# parent commit, and 3 the sampled one (see NOTES.md).
HASH_SEEDS = (0, 1, 3)
# Keys whose last digits depend on string-hash order at the parent
# commit (twirl.tv_distance sums over a set).  A difference confined to
# these keys, within KNOWN_HASH_ORDER_TOL, is counted as a hash-order
# mismatch; any other difference fails the task.
KNOWN_HASH_ORDER_KEYS = ("tv_to_product_of_marginals",)
KNOWN_HASH_ORDER_TOL = 1e-12


@dataclass(frozen=True)
class CliInput:
    name: str
    argv: tuple[str, ...]
    hash_seed: int


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


@dataclass
class CliState:
    """Reference bytes per invocation and the hash-order mismatches seen."""

    reference: dict = field(default_factory=dict)
    mismatches: set = field(default_factory=set)
    peak_rss_kb: int = 0


def cli_inputs(seed: int) -> list[CliInput]:
    """Each documented subcommand on the committed fixtures, under every hash seed."""
    rng = np.random.default_rng(seed)
    twirl_seed, pec_seed = (str(int(s)) for s in rng.integers(1000, size=2))
    commands = [
        ("validate", ("validate", "fixtures/env_correlated.json")),
        ("choi", ("choi", "fixtures/pauli_correlated.json", "--form", "slot")),
        ("chi", ("chi", "fixtures/pauli_correlated.json")),
        ("twirl", ("twirl", "fixtures/env_random.json")),
        ("twirl_samples", ("--seed", twirl_seed, "twirl", "fixtures/env_random.json", "--samples", "200")),
        ("pec", ("--seed", pec_seed, "pec", "fixtures/markovian_depol.json",
                 "--layer", "h", "--observable", "x", "--shots", "1000")),
        ("vcp", ("vcp", "fixtures/pauli_correlated.json", "--input", "plus")),
        ("oracle", ("oracle", "fixtures/env_random.json", "--layer", "h")),
    ]
    return [CliInput(name, argv, h) for h in HASH_SEEDS for name, argv in commands]


CLI_NAMES = ("validate", "choi", "chi", "twirl", "twirl_samples", "pec", "vcp", "oracle")


def run_cli(name: str, argv, hash_seed: int | None = None) -> CliResult:
    """Run ``python <argv>`` from the checkout as a fresh process.

    ``name`` labels the invocation; a traced run names its span after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Read both pipes, then reap the child with wait4 to get its own rusage.
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err[0], usage.ru_maxrss)


@dataclass(frozen=True)
class Layers:
    """The package layers a task may call: the modules themselves, or
    proxies that time each call (see spans.Recorder.layers)."""

    combs: object = combs
    twirl: object = twirl
    pec: object = pec
    vcp: object = vcp
    run_cli: object = run_cli


def cli_run(L: Layers, inp: CliInput) -> CliResult:
    return L.run_cli(inp.name, ("-m", "qcombs.cli", *inp.argv), inp.hash_seed)


def hash_order_only(a: bytes, b: bytes) -> bool:
    """True when two outputs differ only within KNOWN_HASH_ORDER_KEYS."""
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    if len(la) != len(lb):
        return False
    for x, y in zip(la, lb):
        if x == y:
            continue
        kx, _, vx = x.strip().partition(": ")
        ky, _, vy = y.strip().partition(": ")
        if kx != ky or kx.strip('"') not in KNOWN_HASH_ORDER_KEYS:
            return False
        try:
            fx, fy = float(vx.rstrip(",")), float(vy.rstrip(","))
        except ValueError:
            return False
        if not abs(fx - fy) <= KNOWN_HASH_ORDER_TOL * max(abs(fx), 1.0):
            return False
    return True


def _check_cli_numbers(name: str, doc: dict) -> list[str]:
    if name == "validate" and doc["passes"] is not True:
        return ["validate reports a failing comb"]
    if name == "choi" and not (doc["is_trace_preserving"] and abs(doc["trace"] - 4.0) <= TOL_ORACLE):
        return ["choi form is not trace preserving"]
    if name == "chi" and not abs(doc["diag_sum"] - 1.0) <= TOL_ORACLE:
        return [f"chi diagonal sums to {doc['diag_sum']!r}"]
    if name in ("twirl", "twirl_samples"):
        if not abs(sum(doc["table"].values()) - 1.0) <= TOL_ORACLE:
            return ["twirled table does not sum to 1"]
        if any(not abs(sum(m.values()) - 1.0) <= TOL_ORACLE for m in doc["marginals"]):
            return ["twirl marginals do not sum to 1"]
    if name == "pec":
        if not abs(doc["corrected"] - doc["ideal"]) <= TOL_PEC:
            return [f"pec corrected {doc['corrected']!r} is not the ideal {doc['ideal']!r}"]
        s = doc["sampled"]
        if not (s["std_error"] > 0 and abs(s["estimate"] - doc["corrected"]) <= SAMPLE_SIGMAS * s["std_error"]):
            return ["pec sampled estimate misses the corrected value"]
    if name == "vcp" and not max(doc["reference_errors"].values()) <= TOL_VCP:
        return ["vcp differs from the reference purified states"]
    if name == "oracle" and not doc["max_difference"] <= TOL_ORACLE:
        return [f"oracle difference {doc['max_difference']!r}"]
    return []


def cli_check(inp: CliInput, out: CliResult, state: CliState) -> list[str]:
    state.peak_rss_kb = max(state.peak_rss_kb, out.maxrss_kb)
    if out.returncode != 0:
        return [f"{inp.name}: exit code {out.returncode}: {out.stderr.decode()[-400:]}"]
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return [f"{inp.name}: output is not JSON"]
    try:
        problems = _check_cli_numbers(inp.name, doc)
    except (KeyError, TypeError, AttributeError) as exc:
        problems = [f"{inp.name}: output lacks an expected field ({exc!r})"]
    ref = state.reference.setdefault(inp.name, (inp.hash_seed, out.stdout))
    if out.stdout != ref[1]:
        if inp.hash_seed != ref[0] and hash_order_only(ref[1], out.stdout):
            state.mismatches.add((inp.name, inp.hash_seed))
        else:
            problems.append(
                f"{inp.name}: bytes under hash seed {inp.hash_seed} differ from "
                f"hash seed {ref[0]}"
            )
    return problems


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    make_inputs: object
    run: object
    check: object
    make_state: object = lambda: None  # noqa: E731  (per-run check state)


WORKLOADS = {
    "characterize": Workload(
        "characterize",
        f"Haar dilation, M={CHAR_TEETH}, 1 env qubit, exact twirl + {CHAR_FRAMES} frames",
        characterize_inputs, characterize_run, characterize_check,
    ),
    "cancel": Workload(
        "cancel",
        f"weak dilation, M={CANCEL_TEETH}, 1 env qubit, strength {CANCEL_STRENGTH}, "
        f"{CANCEL_SHOTS} shots",
        cancel_inputs, cancel_run, cancel_check,
    ),
    "dilate": Workload(
        "dilate",
        f"weak dilation, M={DILATE_TEETH}, 1 env qubit, {DILATE_CLOSURES} closures, "
        f"vcp on a {DILATE_TABLE_ENTRIES}-entry table",
        dilate_inputs, dilate_run, dilate_check,
    ),
    "cli": Workload(
        "cli",
        f"{len(CLI_NAMES)} subcommands x {len(HASH_SEEDS)} hash seeds on committed fixtures",
        cli_inputs, cli_run, cli_check, CliState,
    ),
}
