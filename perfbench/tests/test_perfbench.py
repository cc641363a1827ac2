"""Self-tests of the benchmark's own rules (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import time
import types
from concurrent.futures import Future
from pathlib import Path

import pytest

from spans import Span, SpanRecorder, Target, self_times, unattributed_fraction, union_length
from stats import (
    MAX_END_TO_END,
    MAX_PER_LAYER,
    check_metric_table,
    highest_percentile,
    samples_beyond,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90.0) == 10
    assert tail_percentile(list(range(100)), 90.0) == 89
    with pytest.raises(ValueError, match="need >= 10"):
        tail_percentile(list(range(99)), 90.0)
    with pytest.raises(ValueError):
        tail_percentile(list(range(199)), 95.0)
    assert tail_percentile(list(range(200)), 95.0) == 189


def test_highest_supported_percentile():
    assert highest_percentile(19) is None
    assert highest_percentile(20) == 50.0
    assert highest_percentile(100) == 90.0
    assert highest_percentile(200) == 95.0
    assert highest_percentile(1000) == 99.0


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert tail_percentile(values, 90.0) == 5.0
    assert tail_percentile(values, 50.0) == 3.0


# -- span arithmetic ------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: together they cover 4
        Span("c", 8.0, 12.0, parent=0),  # only 2 of it lies inside root
        Span("leaf", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_unattributed_fraction_per_request():
    spans = [
        Span("root", 0.0, 10.0, request="r1"),
        Span("work", 0.0, 6.0, parent=0, request="r1"),
        Span("wait", 6.0, 10.0, parent=0, request="r1"),
        Span("work", 6.0, 10.0, request="other"),  # another request's work
    ]
    assert unattributed_fraction(spans, "root") == pytest.approx(0.0)
    assert unattributed_fraction(spans, "root", waits=("wait",)) == pytest.approx(0.4)


def test_recorder_nests_spans_and_restores_patched_functions():
    owner = types.SimpleNamespace(inner=lambda x: x + 1)

    class Holder:
        @classmethod
        def build(cls, x):
            return owner.inner(x) * 2

    recorder = SpanRecorder()
    targets = [
        Target(owner, "inner", "layer.inner", observe=lambda a, k, out: 8),
        Target(Holder, "build", "layer.build"),
    ]
    original_inner = owner.inner
    with recorder.patch(targets):
        assert Holder.build(1) == 4  # disabled: no spans
        assert recorder.spans == []
        recorder.enabled = True
        recorder.segment = "seg"
        with recorder.request("req-1"):
            assert Holder.build(2) == 6
    assert owner.inner is original_inner
    assert isinstance(Holder.__dict__["build"], classmethod)
    names = [(s.name, s.parent, s.request, s.segment, s.nbytes) for s in recorder.spans]
    assert names == [
        ("layer.build", None, "req-1", "seg", 0),
        ("layer.inner", 0, "req-1", "seg", 8),
    ]
    outer, inner = recorder.spans
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- open-loop timing -----------------------------------------------------
class StallingClient:
    """Replies instantly, except that the first submit blocks the sender."""

    def __init__(self, stall_s: float) -> None:
        self.stall_s = stall_s
        self.calls = 0

    def submit(self, request):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)
        future = Future()
        future.set_result(types.SimpleNamespace(ok=True, request=request))
        return future


def test_open_loop_times_requests_from_their_due_time():
    import suite

    arrivals = [suite.Arrival(due_s=0.01 * i, request=f"r{i}") for i in range(3)]
    due, sent, done, results = suite.open_loop(StallingClient(0.2), arrivals)
    latency = suite.latencies_from_due(due, done)
    assert [r.request for r in results] == ["r0", "r1", "r2"]
    # The stall delays the later sends, and their latency counts it,
    # although the program answered them instantly.
    assert sent[1] - due[1] > 0.15
    assert latency[1] > 0.15 and latency[2] > 0.15
    assert all(d >= s for s, d in zip(sent, done))


def test_serve_plan_is_seeded_and_open_loop():
    import suite

    a = suite.serve_plan(7, rate=5.0, seconds=1.0)
    b = suite.serve_plan(7, rate=5.0, seconds=1.0)
    c = suite.serve_plan(8, rate=5.0, seconds=1.0)
    assert len(a) == suite.SERVE_MIN_REQUESTS
    assert [x.due_s for x in a] == [x.due_s for x in b]
    assert [x.request.to_dict() for x in a] == [x.request.to_dict() for x in b]
    assert [x.due_s for x in a] != [x.due_s for x in c]
    assert all(x.due_s < y.due_s for x, y in zip(a, a[1:]))


def test_serve_mix_is_stratified():
    import suite

    for seed in (1, 2, 3):
        plan = suite.serve_plan(seed, rate=7.0, seconds=15.0)
        repeats = [a for a in plan if a.request.id.endswith("-repeat")]
        new = [a for a in plan if not a.request.id.endswith("-repeat")]
        assert len(plan) == 105 and len(repeats) == 26
        assert not plan[0].request.id.endswith("-repeat")
        families = [a.request.solver for a in new]
        assert families.count("traditional") == 35
        assert families.count("vlasov") == 28
        assert families.count("dl") == 16
        assert sum(a.request.observables is not None for a in new) == 20


# -- metric names and caps -------------------------------------------------
def _metric(name, unit="ms", better="lower"):
    return {"name": name, "unit": unit, "better": better}


def test_declared_metrics_obey_grammar_and_caps():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_table(spec["end_to_end"], spec["per_layer"])


@pytest.mark.parametrize("name", ["a b", "_lead", "x" * 65, "bad/slash", ""])
def test_bad_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_table([_metric(name)], [_metric("ok")])


def test_metric_caps_and_duplicates():
    check_metric_table([_metric(f"e{i}") for i in range(MAX_END_TO_END)],
                       [_metric(f"l{i}") for i in range(MAX_PER_LAYER)])
    with pytest.raises(ValueError, match="end-to-end"):
        check_metric_table([_metric(f"e{i}") for i in range(MAX_END_TO_END + 1)],
                           [_metric("l")])
    with pytest.raises(ValueError, match="per-layer"):
        check_metric_table([_metric("e")],
                           [_metric(f"l{i}") for i in range(MAX_PER_LAYER + 1)])
    with pytest.raises(ValueError, match="twice"):
        check_metric_table([_metric("same")], [_metric("same")])
    with pytest.raises(ValueError, match="unit"):
        check_metric_table([_metric("e", unit="a unit")], [_metric("l")])

