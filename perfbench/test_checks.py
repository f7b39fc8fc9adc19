"""Self-test of the benchmark's own checks and statistics.

    python3 -m pytest perfbench -q

Every check must pass a real output and fail a deliberately wrong one,
the tail percentile must come with the right percentile and count, and
host-speed scaling must use the reference samples around each interval.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import hostspeed
import run
import spans
import workloads as W

L = W.Layers()


def _real(name, seed=7):
    w = W.WORKLOADS[name]
    inp = w.make_inputs(seed)[0]
    out = w.run(L, inp)
    assert w.check(inp, out, w.make_state()) == []
    return w, inp, out


@pytest.mark.parametrize(
    "n, expected",
    [
        (100, (90.0, 90, 10, 100)),
        (200, (95.0, 190, 10, 200)),
        (40, (75.0, 30, 10, 40)),
        (39, (50.0, 20, 19, 39)),
        (1000, (99.0, 990, 10, 1000)),
        (5, (50.0, 3, 2, 5)),
    ],
)
def test_tail_percentile(n, expected):
    values = list(range(n, 0, -1))  # order must not matter
    assert run.tail_percentile(values) == expected


def test_scaling_uses_the_reference_samples_around_an_interval():
    nominal = 0.01
    speed = hostspeed.HostSpeed(hostspeed.Reference("test", lambda: None, nominal, 0.2))
    speed.times = [0.0, 10.0, 10.5, 11.0, 20.0, 30.0]
    speed.durations = [nominal, 2 * nominal, 4 * nominal, 4 * nominal, nominal, 2 * nominal]
    # Far from other samples: the median of the two around the interval.
    assert speed.scaled(0.5, 2.0) == pytest.approx(1.5 / 1.5)
    # A host at a quarter of the reference speed quarters the interval;
    # samples within reach on either side count, a stray one is outvoted.
    assert speed.scaled(10.6, 10.9) == pytest.approx(0.3 / 4)
    # The sample just before counts even when it is out of reach.
    assert speed.scaled(9.0, 9.5) == pytest.approx(0.5 / 3)
    assert speed.scaled(31.0, 32.0) == pytest.approx(0.5)  # no sample after
    speed.times, speed.durations = [], []
    with pytest.raises(ValueError):
        speed.scaled(0.0, 1.0)


def test_characterize_check_catches_wrong_results():
    w, inp, out = _real("characterize")
    assert w.check(inp, {**out, "tv": out["tv"] + 1e-6}, None)
    table = dict(out["table"])
    a, b = sorted(table)[:2]
    table[a] += 1e-6
    table[b] -= 1e-6
    assert w.check(inp, {**out, "sampled_table": table}, None)
    table[b] += 2e-6
    assert w.check(inp, {**out, "table": table}, None)


def test_cancel_check_catches_wrong_results():
    w, inp, out = _real("cancel")
    assert w.check(inp, {**out, "exact": out["exact"] + 1e-6}, None)
    assert w.check(inp, {**out, "estimate": out["exact"] + 10 * out["std_error"]}, None)


def test_dilate_check_catches_perturbed_states():
    w, inp, out = _real("dilate")
    via_comb, direct = out["closed"][0]
    closed = [(via_comb + 1e-6 * np.eye(2), direct)] + out["closed"][1:]
    assert w.check(inp, {**out, "closed": closed}, None)
    assert w.check(inp, {**out, "virtual": out["virtual"] + 1e-6}, None)


def test_cli_check_catches_altered_bytes_and_exit_codes():
    w = W.WORKLOADS["cli"]
    inputs = {(i.name, i.hash_seed): i for i in w.make_inputs(7)}
    state = w.make_state()
    inp = inputs["oracle", 0]
    out = w.run(L, inp)
    assert w.check(inp, out, state) == []
    # The same invocation again must give the same bytes.
    altered = out.stdout.replace(b"max_difference", b"max_differencf")
    assert w.check(inp, dataclasses.replace(out, stdout=altered), state)
    # A wrong number fails even when the bytes are new.
    doc = out.stdout.decode()
    key = '"max_difference": '
    start = doc.index(key) + len(key)
    end = doc.index("\n", start)
    wrong = (doc[:start] + "0.001" + doc[end:]).encode()
    assert w.check(inputs["oracle", 1], dataclasses.replace(out, stdout=wrong), state)
    assert w.check(inputs["oracle", 1], dataclasses.replace(out, returncode=1), state)
    assert state.mismatches == set()


def test_hash_order_mismatch_is_counted_not_hidden():
    ref = b'{\n  "table": {},\n  "tv_to_product_of_marginals": 0.10119656976846347\n}'
    other = ref.replace(b"347", b"346")
    assert W.hash_order_only(ref, other)
    assert not W.hash_order_only(ref, ref.replace(b"0.101", b"0.102"))
    assert not W.hash_order_only(ref, ref.replace(b'"table": {}', b'"table": {"I": 1}'))

    state = W.CliState()
    inp0 = W.CliInput("twirl", ("twirl",), 0)
    inp1 = W.CliInput("twirl", ("twirl",), 1)
    table_doc = b'{\n  "marginals": [],\n  "table": {"I": 1.0},\n  "tv_to_product_of_marginals": 0.1\n}'
    out = W.CliResult(0, table_doc, b"", 0)
    assert W.cli_check(inp0, out, state) == []
    shifted = table_doc.replace(b"0.1\n", b"0.10000000000000002\n")
    assert W.cli_check(inp1, dataclasses.replace(out, stdout=shifted), state) == []
    assert state.mismatches == {("twirl", 1)}
    # The same difference under the reference hash seed is a failure.
    assert W.cli_check(inp0, dataclasses.replace(out, stdout=shifted), state)


def test_traced_layers_record_one_span_per_call():
    rec = spans.Recorder()
    traced = rec.layers()
    w = W.WORKLOADS["characterize"]
    inp = w.make_inputs(7)[0]
    with rec.task(0):
        out = w.run(traced, inp)
    assert w.check(inp, out, None) == []
    names = [s.name for s in rec.spans]
    assert names[0] == "task"
    assert names.count("twirl.extract_pauli_diag") == 2
    assert {s.parent for s in rec.spans[1:]} == {0}
    metrics = spans.layer_metrics(rec.spans, rec.spans[0].end - rec.spans[0].start, W.CLI_NAMES)
    assert metrics["twirl.twirl_comb.calls"] == (1, "count")
    assert 0.5 < metrics["twirl.busy_frac"][0] < 1.0
