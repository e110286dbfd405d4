"""Tests of the benchmark's own code.

    python -m pytest perfbench

Span arithmetic, metric names, seeding, the speed probe and the
counting of wrong answers.  The checks that run workload operations use
the cheap ones (Tables 1-2, the n=5 orbit, one pole configuration).
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_self_time_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    start, end, parent = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3, 2, 1, 4])


def test_self_time_back_to_back_spans():
    # children meet at t = 4 and t = 7; the last one is clipped to its parent
    start, end, parent = [0, 1, 4, 7], [10, 4, 7, 12], [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([1, 3, 3, 5])


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0, 2, 3], [10, 6, 8], [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(4)


def test_self_time_matches_a_direct_sum_on_a_random_call_tree():
    rng = random.Random(5)
    start, end, parent = [], [], []

    def call(p, t, depth):
        idx = len(start)
        start.append(t)
        end.append(None)
        parent.append(p)
        t += rng.random()
        for _ in range(rng.randrange(4) if depth < 4 else 0):
            t = call(idx, t, depth + 1) + rng.random()
        end[idx] = t
        return t

    t = 0.0
    for _ in range(5):
        t = call(-1, t, 0) + 1.0
    # a single-threaded trace has disjoint children, so summing them is exact
    direct = [end[i] - start[i] for i in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            direct[p] -= end[i] - start[i]
    assert spans.self_times(start, end, parent) == pytest.approx(direct, abs=1e-8)


def test_tracer_records_nested_calls_and_restores():
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    alias = types.ModuleType("fakepkg")
    alias.outer = outer  # a name imported elsewhere is wrapped too
    sys.modules.update({"fakepkg.mod": mod, "fakepkg": alias})
    try:
        tracer = spans.Tracer()
        tracer.install(
            functions=(("fakepkg.mod", "outer", "x.outer"), ("fakepkg.mod", "inner", "x.inner")),
            methods=(),
        )
        tracer.mark("op-1")
        assert alias.outer(1) == 4
        assert [tracer.names[i] for i in tracer.name_id] == ["x.outer", "x.inner"]
        assert list(tracer.parent) == [-1, 0]
        assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]
        tracer.uninstall()
        assert mod.outer is outer and alias.outer is outer and mod.inner is inner
    finally:
        del sys.modules["fakepkg.mod"], sys.modules["fakepkg"]


def test_metric_names_follow_the_grammar():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics:
        assert UNIT.match(m["unit"]), m
    traced = spans.layer_metrics({}, 0, 1.0)
    assert set(traced) == {m["name"] for m in bench["per_layer"]}
    for name, (_, unit) in traced.items():
        assert NAME.match(name) and UNIT.match(unit), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.REGISTRY)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    def draw(seed):
        return workloads.make(name).draw(random.Random(seed))

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def _cheap(name):
    if name == "n4-tables":
        return workloads.N4Tables(workloads.N4_FAMILIES[:6]), None
    if name == "n6-orbit":
        return workloads.make(name), {"orbit:n5-generic"}
    if name == "monodromy":
        return workloads.make(name), {"monodromy:0"}
    return workloads.make(name), None


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_changing_the_seed_keeps_every_expected_size(name):
    expected = []
    for seed in (1, 2):
        wl, labels = _cheap(name)
        checks = wl.setup(wl.draw(random.Random(seed)))
        ops = wl.ops()
        expected.append([(op.label, op.expected) for op in ops])
        for label, observed, want in checks:
            assert observed == want, label
        for op in ops:
            if labels is None or op.label in labels:
                assert worker.run_op(op) == (True, None), op.label
    assert expected[0] == expected[1]


def test_wrong_expected_size_counts_as_failure():
    wl = workloads.N4Tables(workloads.N4_FAMILIES[:1])
    wl.setup(wl.draw(random.Random(3)))
    ops = wl.ops()
    ops[1].expected += 1  # the paper's 2 becomes 3
    pass_times, attempted, failures, verified = worker.run_passes(ops, 0)
    assert len(pass_times) == 1 and attempted == len(ops)
    assert len(failures) == 1 and failures[0].startswith(ops[1].label)
    assert verified == sum(op.rows for op in ops) - 1
    assert len(failures) / attempted > 0


def test_scale_brings_loop_times_to_the_reference_speed():
    assert calibrate.scale([calibrate.REFERENCE_S] * 3) == pytest.approx(1.0)
    # a machine at half speed: its raw seconds count half
    assert calibrate.scale([2 * calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S]) == 0.5


def test_probe_samples_during_an_operation_and_stops():
    ops = [workloads.Op("nap", lambda: time.sleep(0.3) or 1, 1)]
    with worker.SpeedProbe(period=0.02) as probe:
        _, attempted, failures, _ = worker.run_passes(ops, 0, None, probe)
    assert attempted == 1 and failures == []
    assert len(probe.samples) >= 5 and probe.spent > 0
    assert probe.per_pass == [probe.samples]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_is_taken_out_of_the_passes():
    probe = types.SimpleNamespace(spent=1.0, samples=[0.007], per_pass=[])

    def op():
        time.sleep(0.3)
        probe.spent += 0.2  # as if the handler had run for 0.2 s of it
        return 1

    pass_times, *_ = worker.run_passes([workloads.Op("op", op, 1)], 0, None, probe)
    assert pass_times[0] == pytest.approx(0.1, abs=0.05)
    assert probe.per_pass == [[0.007]]


def test_passes_stop_before_overrunning_the_seconds():
    def nap():
        time.sleep(0.1)
        return 1

    pass_times, *_ = worker.run_passes([workloads.Op("nap", nap, 1)], 0.45)
    assert len(pass_times) == 4  # a fifth pass would end after 0.5 s


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monodromy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
