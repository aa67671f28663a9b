"""Tests of the benchmark's own logic (run: python -m pytest perfbench/tests).

They cover input determinism, the percentile and ladder logic, failure
accounting for a corrupted answer, the breakdown-sum check, the
missing-target path of the tracer and the clean-up of child processes.
None of them times anything.
"""

import multiprocessing
import sys
import threading
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import accel, dse, serve, solve  # noqa: E402
from perfbench.harness import (  # noqa: E402
    Outcome, Rung, backlog_growing, breakdown_error, max_rate, percentile,
    stop_child_processes,
)
from perfbench.tracing import Recorder, Span, attribute  # noqa: E402


# -- generated inputs ------------------------------------------------------
def test_solve_inputs_are_deterministic_per_seed():
    a, b = solve.make_inputs(7, "probe"), solve.make_inputs(7, "probe")
    c = solve.make_inputs(8, "probe")
    for method in solve.METHODS:
        for x, y in zip(a.matrices[method], b.matrices[method]):
            assert np.array_equal(x, y)
    assert not np.array_equal(a.matrices["block"][0], c.matrices["block"][0])
    assert all(np.array_equal(x, y) for x, y in zip(a.stream, b.stream))


def test_rotated_inputs_share_the_spectrum():
    a = solve.make_inputs(1, "probe").matrices["block"]
    b = solve.make_inputs(2, "probe").matrices["block"]
    sa = np.linalg.svd(a[0], compute_uv=False)
    sb = np.linalg.svd(b[0], compute_uv=False)
    assert np.allclose(sa, sb, rtol=1e-12)
    assert not np.allclose(a[0], b[0])


def test_serve_schedule_is_deterministic_per_seed():
    a, b = serve.make_inputs(3, 6), serve.make_inputs(3, 6)
    c = serve.make_inputs(4, 6)
    assert a.nominal.docs == b.nominal.docs
    assert [s.docs for s in a.ladder] == [s.docs for s in b.ladder]
    assert a.nominal.docs != c.nominal.docs
    segments = [a.nominal] + a.ladder
    docs = [d for s in segments for d in s.docs]
    # Only the engine-tier mix: every request is one of the 16-32 shapes.
    assert {tuple(d["shape"]) for d in docs} == set(serve.SHAPES)
    ids = [d["id"] for d in docs]
    assert len(ids) == len(set(ids))


def test_nominal_segment_grows_with_the_run_in_whole_cycles():
    cycle = len(serve.shape_cycle())
    assert serve.nominal_count(1) == serve.NOMINAL_MIN
    long_run = serve.nominal_count(21)
    assert 0 <= long_run - serve.NOMINAL_RATE * serve.NOMINAL_S_PER_S * 21 \
        < serve.NOMINAL_SLICE
    assert long_run % cycle == 0 and long_run % serve.NOMINAL_SLICE == 0
    assert len(serve.make_inputs(1, 21).nominal.docs) == long_run


def test_shape_cycle_holds_every_ordered_pair_once():
    cycle = serve.shape_cycle()
    pairs = {(cycle[i], cycle[(i + 1) % len(cycle)])
             for i in range(len(cycle))}
    assert len(cycle) == len(pairs) == len(serve.SHAPES) ** 2
    nominal = serve.make_inputs(5, 6).nominal.docs
    counts = {shape: 0 for shape in serve.SHAPES}
    for doc in nominal:
        counts[tuple(doc["shape"])] += 1
    assert set(counts.values()) == {len(nominal) // len(serve.SHAPES)}


def test_dse_and_accel_inputs_are_deterministic_per_seed():
    assert dse.make_inputs(5) == dse.make_inputs(5)
    assert dse.make_inputs(5) != dse.make_inputs(6)
    classic = dse.make_inputs(5)["classic"]
    assert len(classic) == len(set(classic)) == (
        len(dse.CLASSIC_SIZES) * len(dse.OBJECTIVES))
    x, y = accel.make_inputs(5), accel.make_inputs(5)
    assert all(np.array_equal(p, q) for p, q in zip(x, y))


# -- statistics and the ladder ---------------------------------------------
def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_backlog_growth_is_detected():
    steady = [20.0, 25.0, 22.0, 21.0, 24.0, 23.0, 20.0, 22.0, 25.0]
    growing = [20.0 + 30.0 * i for i in range(9)]
    assert not backlog_growing(steady)
    assert backlog_growing(growing)


def test_max_rate_interpolates_between_pass_and_miss():
    rungs = [Rung(20, 40.0, False), Rung(24, 80.0, False),
             Rung(28, 120.0, False), Rung(32, 400.0, True)]
    assert max_rate(rungs) == pytest.approx(26.0)


def test_max_rate_edges():
    assert max_rate([Rung(20, 40.0, False), Rung(24, 60.0, False)]) == 24
    # A miss from a growing backlog alone stops at the passing rung.
    assert max_rate([Rung(20, 40.0, False), Rung(24, 90.0, True)]) == 20
    # Nothing passes: the first rate scaled down by limit / p90.
    assert max_rate([Rung(20, 200.0, False)]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        max_rate([])


def test_dse_frontier_rows_are_read_from_the_table():
    table = (
        "Sharded DSE: 256x256, objective=latency, 2/2 units\n"
        "rank | P_eng | P_task | ordering    | freq MHz | latency ms"
        " | tasks/s | power W | front\n"
        "-----+-------+--------+-------------+----------+-----------"
        "-+---------+---------+------\n"
        "1    | 11    | 1      | codesign    | 405      | 8.056     "
        " | 124.14  | 31.3    | *    \n"
        "2    | 11    | 1      | traditional | 405      | 8.107     "
        " | 123.34  | 31.3    |      \n"
    )
    assert dse._frontier_rows(table) == [("11", "1", "codesign", "405")]


# -- correctness accounting ------------------------------------------------
def _engine_entry(seed=11, shape=(16, 16)):
    from repro import svd
    from repro.workloads.matrices import random_matrix

    a = random_matrix(*shape, seed=seed)
    sigma = [float(v) for v in
             svd(a, method="block", block_width=4).singular_values]
    doc = {"op": "decompose", "id": "t0", "shape": list(shape), "seed": seed}
    response = {"id": "t0", "ok": True, "sigma": sigma, "degraded": False,
                "shed": False, "queue_s": 0.0, "service_s": 0.0}
    return serve.Sent(doc, 0.0, 0.0, 0.001, response)


def test_exact_answer_passes_and_corrupted_answer_fails():
    good = _engine_entry()
    outcome = Outcome()
    serve._check_answers([good], outcome)
    assert (outcome.attempted, outcome.failed) == (1, 0)

    bad = _engine_entry()
    bad.response["sigma"][0] = np.nextafter(bad.response["sigma"][0], 0.0)
    outcome = Outcome()
    serve._check_answers([bad], outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "differs" in outcome.violations[0]


def test_errors_and_timeouts_count_as_failures():
    rejected = _engine_entry()
    rejected.response = {"id": "t0", "ok": False,
                         "error": {"code": "overloaded", "message": "x"}}
    lost = _engine_entry()
    lost.response = None
    outcome = Outcome()
    serve._check_answers([rejected, lost], outcome)
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_corrupted_sigma_fails_the_solve_contract():
    inputs = solve.make_inputs(1, "probe")
    a = inputs.matrices["dnc"][0]
    sigma = np.linalg.svd(a, compute_uv=False)
    outcome = Outcome()
    sigmas = {m: [] for m in solve.METHODS}
    sigmas["dnc"] = [(0, sigma), (0, sigma * (1 + 1e-6))]
    solve._check_sigmas(inputs, sigmas, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)


# -- breakdown -------------------------------------------------------------
def test_attribution_gives_time_to_the_deepest_span():
    spans = [Span(0.0, 10.0, 0, "other", "root"),
             Span(1.0, 5.0, 1, "linalg", "svd"),
             Span(2.0, 3.0, 2, "guard", "validate"),
             Span(4.0, 8.0, 1000, "exec", "worker")]
    layers, names = attribute(spans, 0.0, 10.0)
    assert layers["guard"] == pytest.approx(1.0)
    assert layers["linalg"] == pytest.approx(2.0)   # 1-2 and 3-4
    assert layers["exec"] == pytest.approx(4.0)     # other thread wins
    assert layers["other"] == pytest.approx(3.0)
    assert names["svd"] == pytest.approx(2.0)
    assert breakdown_error(layers, 10.0) == pytest.approx(0.0)


def test_breakdown_check_reports_uncovered_time():
    layers, _ = attribute([Span(0.0, 6.0, 0, "other", "root")], 0.0, 10.0)
    assert layers["untraced"] == pytest.approx(4.0)
    covered = {k: v for k, v in layers.items() if k != "untraced"}
    assert breakdown_error(covered, 10.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        breakdown_error(covered, 0.0)


# -- tracer ----------------------------------------------------------------
def test_missing_targets_are_listed_not_fatal():
    rec = Recorder()
    rec.install((
        ("repro.linalg.convergence", "no_such_function", "linalg", "gone"),
        ("repro.no_such_module", "f", "linalg", "gone_module"),
        ("repro.core.timing", "NoSuchClass.simulate", "sim", "gone_class"),
    ))
    assert rec.missing == ["gone", "gone_module", "gone_class"]
    rec.uninstall()


def test_install_wraps_every_import_site_and_uninstall_restores():
    import repro
    import repro.linalg
    from repro.linalg.convergence import off_diagonal_ratio

    original_svd = repro.svd
    rec = Recorder()
    rec.install()
    try:
        assert repro.svd is not original_svd
        assert repro.linalg.svd is repro.svd
        repro.svd(np.eye(4), method="block")
        assert rec.named("linalg.svd")
        assert rec.named("linalg.svd")[0].cells == 16
    finally:
        rec.uninstall()
    assert repro.svd is original_svd
    import repro.linalg.convergence as convergence
    assert convergence.off_diagonal_ratio is off_diagonal_ratio


def test_spans_off_the_main_thread_rank_below_main_thread_spans():
    rec = Recorder()

    def work():
        with rec.span("linalg", "worker"):
            pass

    with rec.span("other", "root"):
        with rec.span("serve", "wait"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(5.0)
    assert not worker.is_alive()
    depths = {s.name: s.depth for s in rec.spans}
    assert depths["root"] == 0 and depths["wait"] == 1
    assert depths["worker"] > depths["wait"]


def test_recording_off_keeps_no_spans():
    rec = Recorder()
    rec.recording = False
    with rec.span("linalg", "ignored"):
        pass
    assert rec.spans == []


# -- process clean-up ------------------------------------------------------

def test_spawned_children_and_resource_tracker_are_stopped():
    worker = multiprocessing.get_context("spawn").Process(target=int)
    worker.start()
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None  # spawning started the tracker
    stop_child_processes()
    assert multiprocessing.active_children() == []
    assert worker.exitcode == 0
    assert tracker._pid is None
