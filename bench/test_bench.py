"""Tests of the benchmark itself: span arithmetic, checks, and tracing hygiene.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kitaevchain  # noqa: E402
from kitaevchain import cli, entropy, linalg, pairing  # noqa: E402
from tracing import PROBES, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Curve, HalfBlock, Scan  # noqa: E402

SMALL = {
    "curve": Curve(n_sites=40, lengths=range(2, 21, 2), mirror_samples=3),
    "scan": Scan(n_sites=40, block_len=20, h_axis=(-0.5, 0.5, 0.25), ratio_axis=(0.5, 1.5, 0.25)),
    "half_block": HalfBlock(n_sites=240, ref_sites=120, count=16),
}


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.inner", 2.0, 3.0),
        Span(3, 0, "b", 3.0, 6.0),  # overlaps a: the union [1, 6] is covered once
        Span(4, 0, "c", 9.0, 12.0),  # runs past the root: only [9, 10] counts
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0})


def test_layer_metrics_cover_only_the_job_span():
    t = Tracer("synthetic")
    t.spans = [
        Span(0, None, "other", 0.0, 1.0),
        Span(1, 0, "entropy.block_entropy", 0.2, 0.3),
        Span(2, None, "job", 2.0, 10.0),
        Span(3, 2, "pairing.real_space_gamma", 2.5, 4.0),
        Span(4, 2, "entropy.block_entropy", 5.0, 5.5),
        Span(5, 2, "entropy.block_entropy", 6.0, 6.5),
    ]
    m = layer_metrics(t, t.spans[2])
    assert m["entropy.block_entropy.calls"] == 2
    assert m["entropy.block_entropy.self_s"] == pytest.approx(1.0)
    assert m["cli.main.calls"] == 0 and m["cli.main.self_s"] == 0.0
    assert m["pairing.entropies_per_gamma"] == 2.0
    assert m["trace.wall_s"] == pytest.approx(8.0)
    assert m["trace.toplevel_s"] == pytest.approx(2.5)
    assert m["trace.toplevel_s"] + m["trace.gap_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.spans"] == 3


def test_correlations_computed_once_per_gamma():
    p = kitaevchain.ChainParams(16, 1.0, 0.9, 0.4)
    t = Tracer("cache")
    t.install()
    try:
        g = pairing.real_space_gamma(p)
        for _ in range(3):
            pairing.pair_correlations(g)
        pairing.pair_correlations(pairing.real_space_gamma(p))
    finally:
        t.remove()
    assert t.counters["pairing.pair_correlations.computed"] == 2
    assert t.counters["pairing.pair_correlations.flops"] == 2 * 34 * 16**3 // 3


def _runs(name, tmp_path, count=2):
    wl = SMALL[name]
    inp = wl.inputs(3, str(tmp_path))
    return wl, inp, [wl.collect(inp, wl.run(inp)) for _ in range(count)]


def test_perturbed_curve_entropy_is_a_failure(tmp_path):
    wl, inp, runs = _runs("curve", tmp_path)
    assert not wl.check(inp, runs).failed
    i = list(wl.lengths).index(inp["sample"][0])
    runs[0][i] += 1e-6
    out = wl.check(inp, runs)
    assert len(out.failed) == 2  # the mirror check on run 0 and the run-1 agreement
    assert out.max_err_bits == pytest.approx(1e-6, rel=1e-3)


def test_perturbed_scan_entropy_is_a_failure(tmp_path):
    wl, inp, runs = _runs("scan", tmp_path, count=1)
    assert not wl.check(inp, runs).failed
    h, s = runs[0][0]["rows"][0]
    runs[0][0]["rows"][0] = (h, s + 1e-6)
    out = wl.check(inp, runs)
    assert len(out.failed) == 2  # both members of the symmetric pair
    runs[0][0]["rows"].pop()
    assert len(wl.check(inp, runs).failed) == wl._count(wl.h_axis)


def test_perturbed_half_block_output_is_a_failure(tmp_path):
    wl, inp, runs = _runs("half_block", tmp_path, count=1)
    assert not wl.check(inp, runs).failed
    s, lambdas = runs[0]
    assert len(wl.check(inp, [(s + 1e-6, lambdas)]).failed) == 1
    assert len(wl.check(inp, [(math.nan, lambdas)]).failed) == 1
    assert len(wl.check(inp, [(s, lambdas[::-1])]).failed) == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_entropies_in_nats_fail_the_exact_anchor(name, tmp_path, monkeypatch):
    # Scaling every entropy by ln 2 keeps every relative invariant intact;
    # only the comparison with exact diagonalization can catch it.
    original = entropy.block_entropy
    nats = lambda s: original(s) * math.log(2)  # noqa: E731
    monkeypatch.setattr(entropy, "block_entropy", nats)
    monkeypatch.setattr(kitaevchain, "block_entropy", nats)
    wl, inp, runs = _runs(name, tmp_path)
    out = wl.check(inp, runs)
    assert out.failed
    assert all(key[0] == "oracle" for key in out.failed)


def _outputs(tmp_path):
    return {name: _runs(name, tmp_path, count=1)[2][0] for name in SMALL}


def test_tracing_leaves_outputs_bit_identical(tmp_path):
    modules = (kitaevchain, cli, entropy, linalg, pairing, kitaevchain.model)
    before_attrs = [dict(vars(m)) for m in modules]
    before = _outputs(tmp_path)
    t = Tracer("hygiene")
    t.install()
    try:
        assert pairing.real_space_gamma is not before_attrs[4]["real_space_gamma"]
        traced = _outputs(tmp_path)
    finally:
        t.remove()
    after = _outputs(tmp_path)
    assert repr(traced) == repr(before)
    assert repr(after) == repr(before)
    for m, attrs in zip(modules, before_attrs):
        for probe in PROBES:
            if probe.attr in attrs:
                assert getattr(m, probe.attr) is attrs[probe.attr]
    names = {s.name for s in t.spans}
    assert {"pairing.real_space_gamma", "cli.main", "entropy.entanglement_spectrum"} <= names
