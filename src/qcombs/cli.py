"""Command line front end.

Process specifications are JSON documents with a ``kind`` field:

* ``env_model``: system-environment dilation (initial environment state
  and one joint unitary per tooth, system wire slowest),
* ``markovian``: independent tooth channels,
* ``pauli_correlated``: joint probability table over per-tooth Pauli
  labels, keys joined with ":",
* ``choi_explicit``: the comb operator itself.

Complex entries are written as [re, im] pairs; plain numbers are read
as real.  All commands print one JSON document (sorted keys) so that
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import (
    Channel,
    apply,
    depolarizing_channel,
    from_kraus,
    identity_channel,
    pauli_channel,
    unitary_channel,
)
from .combs import (
    Comb,
    EnvModel,
    _check_layers,
    apply_comb,
    choi_channel,
    comb_chi,
    comb_from_env_model,
    markovian_comb,
    simulate_env_model,
    slot_channel,
    validate_comb,
)
from .linalg import ShapeError, check_shape, check_state, is_hermitian
from .pauli import offdiag_mass, pauli_labels, pauli_matrix, qubit_count
from .pec import _STATES, decompose_inverse, pec_correct_exact, pec_sample
from .twirl import (
    PauliDiagTable,
    _keys_of,
    comb_from_pauli_table,
    marginals,
    mutual_information,
    pauli_table,
    product_of_marginals,
    sampled_twirl,
    tv_distance,
)
from .vcp import purified_weights, reference_purified, vcp_comb

_SQ2 = 1.0 / np.sqrt(2.0)

_OBSERVABLES = {name: pauli_matrix(name.upper()) for name in "ixyz"}

_UNITARIES = {
    **_OBSERVABLES,
    "id": _OBSERVABLES["i"],
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}


class CliError(Exception):
    """Bad input that the user can fix; maps to exit code 2, as the library's
    :class:`linalg.ShapeError` does."""


def _decode_entry(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x, 0.0)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) for v in x):
        return complex(x[0], x[1])
    raise CliError(f"cannot read matrix entry {x!r}; use a number or [re, im]")


def decode_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise CliError("matrix must be a list of rows")
    if any(not isinstance(row, list) or len(row) != len(rows[0]) for row in rows):
        raise CliError("matrix rows must be lists of equal length")
    return np.array([[_decode_entry(x) for x in row] for row in rows])


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _load_json(arg: str):
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {arg}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except ValueError as exc:  # JSONDecodeError is one
        raise CliError(f"invalid JSON in {arg!r}: {exc}") from exc


def _refuse_constant(token: str):
    """Refuse Python's NaN, Infinity and -Infinity tokens, which are not JSON."""
    raise ValueError(f"{token} is not a JSON number")


def _number(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CliError(f"{what} must be a number, got {x!r}")
    return float(x)


def _integer(x, what: str, minimum: int) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < minimum:
        raise CliError(f"{what} must be an integer of at least {minimum}, got {x!r}")
    return x


def _nonempty(x, kind: type, what: str):
    if not isinstance(x, kind) or not x:
        raise CliError(f"{what} must be a non-empty {'list' if kind is list else 'object'}")
    return x


def _channel_from_json(doc) -> Channel:
    if isinstance(doc, list):
        return unitary_channel(decode_matrix(doc))
    if not isinstance(doc, dict):
        raise CliError("channel spec must be a matrix or an object")
    if "unitary" in doc:
        return unitary_channel(decode_matrix(doc["unitary"]))
    if "kraus" in doc:
        return from_kraus([decode_matrix(k) for k in _nonempty(doc["kraus"], list, "kraus")])
    if "choi" in doc:
        m = decode_matrix(doc["choi"])
        d = int(round(np.sqrt(m.shape[0])))
        channel = Channel(choi=m, d_in=d, d_out=d)
        channel.validate()
        return channel
    if "name" in doc:
        if not isinstance(doc["name"], str):
            raise CliError(f"channel name must be a string, got {doc['name']!r}")
        name = doc["name"].lower()
        if name == "depolarizing":
            return depolarizing_channel(_number(doc.get("p", 0.0), "depolarizing p"))
        if name == "identity":
            return identity_channel(_integer(doc.get("d", 2), "identity d", 1))
        if name == "pauli":
            probs = _nonempty(doc.get("probs"), dict, "pauli channel probs")
            return pauli_channel({k: _number(v, f"probability of {k!r}") for k, v in probs.items()})
        if name in _UNITARIES:
            return unitary_channel(_UNITARIES[name])
        raise CliError(f"unknown channel name {doc['name']!r}")
    raise CliError("channel spec needs unitary, kraus, choi or name")


def _table_from_payload(payload, teeth: int, n_qubits: int) -> PauliDiagTable:
    probs = {
        tuple(key.split(":")): _number(p, f"probability of {key!r}")
        for key, p in payload["probs"].items()
    }
    return PauliDiagTable(probs=probs, teeth=teeth, n_qubits=n_qubits)


_PAYLOAD_FIELDS = {
    "env_model": ("d_env", "env_init", "interactions"),
    "markovian": ("channels",),
    "pauli_correlated": ("probs",),
    "choi_explicit": ("choi_op",),
}


def load_spec(arg: str):
    """Read a process spec; returns (comb, env_model or None, table or None, doc)."""
    doc = _load_json(arg)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliError("process spec must be an object with a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PAYLOAD_FIELDS:
        raise CliError(f"unknown spec kind {kind!r}")
    teeth = _integer(doc.get("teeth", 0), "teeth", 0)
    d_sys = _integer(doc.get("d_sys", 2), "d_sys", 1)
    payload = doc.get("payload", {})
    if not isinstance(payload, dict):
        raise CliError("spec payload must be an object")
    missing = [name for name in _PAYLOAD_FIELDS[kind] if name not in payload]
    if missing:
        raise CliError(f"{kind} spec payload lacks {', '.join(missing)}")
    if kind == "env_model":
        d_env = _integer(payload["d_env"], "d_env", 1)
        env_init = decode_matrix(payload["env_init"])
        interactions = _nonempty(payload["interactions"], list, "interactions")
        interactions = [decode_matrix(u) for u in interactions]
        model = EnvModel(
            d_sys=d_sys, d_env=d_env, env_init=env_init, interactions=tuple(interactions)
        )
        if teeth and teeth != model.teeth:
            raise CliError(f"spec says {teeth} teeth but lists {model.teeth} interactions")
        return comb_from_env_model(model, validate=False), model, None, doc
    if kind == "markovian":
        chans = _nonempty(payload["channels"], list, "channels")
        comb = markovian_comb([_channel_from_json(c) for c in chans])
        if teeth and teeth != comb.teeth:
            raise CliError(f"spec says {teeth} teeth but lists {comb.teeth} channels")
        return comb, None, None, doc
    if kind == "pauli_correlated":
        _nonempty(payload["probs"], dict, "pauli_correlated probs")
        if not teeth:
            first = next(iter(payload["probs"]))
            teeth = len(first.split(":"))
        n_qubits = d_sys.bit_length() - 1
        if n_qubits < 1 or d_sys != 2**n_qubits:
            raise CliError(
                f"pauli_correlated d_sys must be a power of two of at least 2, got {d_sys}"
            )
        table = _table_from_payload(payload, teeth, n_qubits)
        return comb_from_pauli_table(table), None, table, doc
    m = decode_matrix(payload["choi_op"])
    if not teeth:
        raise CliError("choi_explicit specs must state the number of teeth")
    return Comb(choi_op=m, teeth=teeth, d_sys=d_sys), None, None, doc


def _parse_matrix(arg: str, named: dict, d: int, what: str) -> np.ndarray:
    """A named or JSON matrix that must act on the d-level system."""
    if arg.lower() in named:
        m = named[arg.lower()]
    else:
        m = decode_matrix(_load_json(arg))
    return check_shape(m, d, what)


def _parse_state(arg: str, d: int) -> np.ndarray:
    """An ``--input`` that must be a density matrix of the d-level system."""
    rho = _parse_matrix(arg, _STATES, d, "input state")
    check_state(rho, "input state")
    return rho


def _parse_observable(arg: str, d: int) -> np.ndarray:
    """An ``--observable`` that must be Hermitian on the d-level system."""
    obs = _parse_matrix(arg, _OBSERVABLES, d, "observable")
    if not is_hermitian(obs, tol=1e-9):
        raise ValueError("observable is not Hermitian")
    return obs


def _parse_layer(arg: str) -> Channel:
    if arg.lower() in _UNITARIES:
        return unitary_channel(_UNITARIES[arg.lower()])
    return _channel_from_json(_load_json(arg))


def _resolve_layers(args, comb: Comb) -> list[Channel]:
    """The ``--layer`` channels, identities when none is given; one fills
    every slot only when there are two or more."""
    slots = comb.teeth - 1
    given = [_parse_layer(a) for a in (args.layer or [])]
    if not given:
        return [identity_channel(comb.d_sys) for _ in range(slots)]
    if len(given) == 1 and slots > 1:
        given *= slots
    return _check_layers(given, comb.teeth, comb.d_sys)


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_validate(args) -> int:
    comb, _, _, doc = load_spec(args.spec)
    report = validate_comb(comb, tol=args.tol)
    _emit(
        {
            "kind": doc["kind"],
            "teeth": comb.teeth,
            "d_sys": comb.d_sys,
            "passes": report.passes,
            "psd_ok": report.psd_ok,
            "min_eigenvalue": report.min_eigenvalue,
            "per_level_residuals": list(report.per_level_residuals),
            "trace": comb.trace,
            "expected_trace": float(comb.d_sys**comb.teeth),
        }
    )
    return 0 if report.passes else 1


def cmd_choi(args) -> int:
    comb, _, _, _ = load_spec(args.spec)
    ch = slot_channel(comb) if args.form == "slot" else choi_channel(comb)
    _emit(
        {
            "form": args.form,
            "teeth": comb.teeth,
            "d_sys": comb.d_sys,
            "trace": float(np.trace(ch.choi).real),
            "is_trace_preserving": bool(ch.is_trace_preserving(args.tol)),
            "choi": encode_matrix(ch.choi),
        }
    )
    return 0


def cmd_chi(args) -> int:
    comb, _, _, _ = load_spec(args.spec)
    chi = comb_chi(comb)
    n_total = qubit_count(comb.d_sys) * comb.teeth
    diag = np.real(np.diag(chi))
    off = offdiag_mass(chi)
    _emit(
        {
            "teeth": comb.teeth,
            "d_sys": comb.d_sys,
            "labels": pauli_labels(n_total),
            "chi": encode_matrix(chi),
            "diag_sum": float(diag.sum()),
            "offdiag_mass": off,
        }
    )
    return 0


def cmd_twirl(args) -> int:
    if args.samples < 0:
        raise CliError(f"--samples must be 0 (exact) or positive, got {args.samples}")
    if not np.isfinite(args.prune):
        raise CliError(f"--prune must be a finite number, got {args.prune}")
    comb, _, _, _ = load_spec(args.spec)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        table = pauli_table(sampled_twirl(comb, args.samples, rng))
    else:
        table = pauli_table(comb)
    keep = np.flatnonzero(table.vector > args.prune)
    keys = _keys_of(keep, table.teeth, table.n_qubits)
    probs = dict(zip(map(":".join, keys), table.vector[keep].tolist()))
    margs = [dict(sorted(m.items())) for m in marginals(table)]
    mi = mutual_information(table) if table.teeth == 2 else None
    _emit(
        {
            "teeth": comb.teeth,
            "d_sys": comb.d_sys,
            "samples": args.samples or None,
            "table": probs,
            "marginals": margs,
            "tv_to_product_of_marginals": tv_distance(table, product_of_marginals(table)),
            "mutual_information_bits": mi,
        }
    )
    return 0


def cmd_pec(args) -> int:
    if args.shots < 0 or args.shots == 1:
        raise CliError(f"--shots must be 0 or at least 2, got {args.shots}")
    comb, _, _, _ = load_spec(args.spec)
    decomp = decompose_inverse(comb)  # an all-zero comb is refused as singular noise first
    if not (report := validate_comb(comb, tol=args.tol)).passes:
        raise ValueError(f"comb fails validation: {report}")
    layers = _resolve_layers(args, comb)
    rho = _parse_state(args.input, comb.d_sys)
    obs = _parse_observable(args.observable, comb.d_sys)
    ideal_state = rho
    for lay in layers:
        ideal_state = apply(lay, ideal_state)
    ideal = float(np.trace(obs @ ideal_state).real)
    noisy = float(np.trace(obs @ apply_comb(comb, layers, rho)).real)
    out = {
        "gamma": decomp.gamma,
        "ptm_condition_number": decomp.ptm_condition_number,
        "residual": decomp.residual,
        "nonzero_terms": int(np.count_nonzero(decomp.alpha)),
        "ideal": ideal,
        "noisy": noisy,
        "corrected": pec_correct_exact(comb, decomp, layers, rho, obs),
        "sampled": None,
    }
    if args.shots:
        # The comb kept the exact value's term table, so sampling draws from it.
        rng = np.random.default_rng(args.seed)
        est, se = pec_sample(comb, decomp, layers, rho, obs, args.shots, rng)
        out["sampled"] = {"estimate": est, "std_error": se, "shots": args.shots}
    if args.csv:
        _write_alpha_csv(args.csv, decomp)
    _emit(out)
    return 0


def _write_alpha_csv(path: str, decomp) -> None:
    names = decomp.basis.names
    lines = [",".join(f"op_{m + 1}" for m in range(decomp.teeth)) + ",alpha"]
    flat = decomp.alpha.reshape(-1)
    shape = decomp.alpha.shape
    for idx in np.flatnonzero(flat):
        combo = np.unravel_index(idx, shape)
        lines.append(",".join(names[c] for c in combo) + f",{float(flat[idx])!r}")
    _write_lines(path, lines)


def cmd_vcp(args) -> int:
    comb, model, table, doc = load_spec(args.spec)
    if args.csv and model is not None:
        raise CliError("--csv writes a Pauli table, and an env_model spec has none")
    derived = table is None and model is None
    if derived:
        table = pauli_table(comb)
        comb = comb_from_pauli_table(table)
    # A dilation runs as itself, a table as its comb.
    copy1 = copy2 = comb if model is None else model
    if args.spec2:
        comb2, model2, table2, _ = load_spec(args.spec2)
        if model2 is None and table2 is None:
            raise CliError("--spec2 must be an env_model or pauli_correlated spec")
        copy2 = comb2 if model2 is None else model2
    layers = _resolve_layers(args, comb)
    rho = _parse_state(args.input, comb.d_sys)
    res = vcp_comb(copy1, copy2, layers, rho)
    out = {
        "teeth": comb.teeth,
        "d_sys": comb.d_sys,
        "twirled_first": derived,
        "p_plus": res.p_plus,
        "p_minus": res.p_minus,
        "p_gap": res.p_gap,
        "virtual_state": encode_matrix(res.virtual_state),
        "physical_state": encode_matrix(res.physical_state),
        "reference_errors": None,
    }
    if table is not None and args.spec2 is None:
        ref_v = reference_purified(table, layers, rho, "virtual")
        ref_p = reference_purified(table, layers, rho, "physical")
        out["reference_errors"] = {
            "virtual": float(np.abs(res.virtual_state - ref_v).max()),
            "physical": float(np.abs(res.physical_state - ref_p).max()),
        }
    if args.csv:
        _write_table_csv(args.csv, table)
    _emit(out)
    return 0


def _write_table_csv(path: str, table: PauliDiagTable) -> None:
    virtual = purified_weights(table, "virtual")
    physical = purified_weights(table, "physical")
    lines = [
        ",".join(f"tooth_{m + 1}" for m in range(table.teeth))
        + ",prob,virtual_weight,physical_weight"
    ]
    for key in sorted(table.probs):
        lines.append(
            ",".join(key) + f",{table.probs[key]!r},{virtual[key]!r},{physical[key]!r}"
        )
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_oracle(args) -> int:
    comb, model, _, _ = load_spec(args.spec)
    if model is None:
        raise CliError("the oracle command needs an env_model spec")
    layers = _resolve_layers(args, comb)
    rho = _parse_state(args.input, comb.d_sys)
    direct = simulate_env_model(model, layers, rho)
    via_comb = apply_comb(comb, layers, rho)
    _emit(
        {
            "output_state": encode_matrix(direct),
            "comb_output_state": encode_matrix(via_comb),
            "max_difference": float(np.abs(direct - via_comb).max()),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcombs",
        description="Inspect and mitigate temporally correlated quantum noise.",
    )
    parser.add_argument("--version", action="version", version=f"qcombs {__version__}")
    parser.add_argument("--tol", type=float, default=1e-9, help="numerical tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampling commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check positivity and causality of a process")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("choi", help="print the channel form of a process")
    p.add_argument("spec")
    p.add_argument("--form", choices=["choi", "slot"], default="choi")
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("chi", help="print the Pauli process matrix of a process")
    p.add_argument("spec")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("twirl", help="twirl a process and print its Pauli table")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo frames (0 = exact)")
    p.add_argument("--prune", type=float, default=1e-12, help="drop table entries below this")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("pec", help="quasi-probability cancellation of a process")
    p.add_argument("spec")
    p.add_argument("--layer", action="append", help="slot channel (name, JSON or file)")
    p.add_argument("--input", default="zero", help="input state (name, JSON or file)")
    p.add_argument("--observable", default="z", help="measured observable")
    p.add_argument("--shots", type=int, default=0, help="also sample this many shots")
    p.add_argument("--csv", help="write the quasi-probability weights to a CSV file")
    p.set_defaults(func=cmd_pec)

    p = sub.add_parser("vcp", help="virtually purify a correlated Pauli process")
    p.add_argument("spec")
    p.add_argument("--spec2", help="dilation of the second copy (defaults to the first)")
    p.add_argument("--layer", action="append", help="slot channel (name, JSON or file)")
    p.add_argument("--input", default="zero", help="input state")
    p.add_argument("--csv", help="write the error table with purified weights to CSV")
    p.set_defaults(func=cmd_vcp)

    p = sub.add_parser("oracle", help="simulate an env_model directly and cross-check")
    p.add_argument("spec")
    p.add_argument("--layer", action="append", help="slot channel (name, JSON or file)")
    p.add_argument("--input", default="zero", help="input state")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise CliError(f"--tol must be a finite positive number, got {args.tol}")
        if args.seed < 0:
            raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush fails quietly too (see the SIGPIPE note
        # in the Python docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
