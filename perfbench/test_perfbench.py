"""The benchmark's own tests: seeded inputs, the oracle, op counts, and
the traced run's store spans.  Run from the repository root with
``PYTHONPATH=src python3 -m pytest perfbench -q``."""

import copy
import gc
import json
import os
import random

import pytest

from repro.core.executable import ExecutableSlice
from repro.engine import SlicingSession
from repro.lang import ast_nodes as A
from repro.lang import check, parse
from repro.sdg import VertexKind

from perfbench import gen, oracle, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _input_digest(name, seed, ops=14):
    """The input digest of a workload's first ``ops`` items."""
    workload = workloads.WORKLOADS[name](seed, tracing.NullRecorder(), None)
    for _ in range(ops):
        workload.next_item()
    return workload.inputs.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _input_digest(name, 5) == _input_digest(name, 5)
    assert _input_digest(name, 5) != _input_digest(name, 6)


def _sources(name, seed):
    """The source texts a round of ``name`` on ``seed`` opens."""
    workload = workloads.WORKLOADS[name](seed, tracing.NullRecorder(), None)
    return [
        workload.source_of(workload.next_item()) for _ in range(workload.ops_per_round)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_deal_one_population_in_different_orders(name):
    first, second = (_sources(name, seed) for seed in (5, 6))
    assert first != second
    assert sorted(first) == sorted(second)


def test_every_edit_and_commit_starts_from_the_starting_text():
    stream = workloads.EditStream(5, tracing.NullRecorder(), None)
    items = [stream.next_item() for _ in range(6)]
    assert [text == stream.base for _kind, _proc, text in items] == [False, True] * 3
    assert items[1][:2] == items[0][:2]
    walk = gen.CommitWalk(random.Random(5), workloads.STORE_PROGRAMS, workloads.STORE_COMMITS)
    for _ in range(10):
        index, _kind, _text = walk.commits[walk.next_commit()]
        changed = [i for i, text in enumerate(walk.sources) if text != walk.base[i]]
        assert changed == [index]


def _program_with_distinct_prints():
    """A corpus program, its session, its oracle, and two prints whose
    output differs on the oracle's inputs."""
    for index in range(gen.CORPUS_SIZE):
        session = SlicingSession(gen.corpus_program(index), kernel="csr")
        checker = oracle.Oracle(session.sdg, 0)
        prints = checker.prints
        for first, second in zip(range(len(prints)), range(1, len(prints))):
            outputs = [
                [
                    [values for uid, _fmt, values in run_.prints if uid == checker._uid(prints[i])]
                    for i in (first, second)
                ]
                for _inputs, run_ in checker.runs
            ]
            if checker.runs and any(a != b for a, b in outputs):
                return session, checker, first, second
    raise AssertionError("no corpus program with distinguishable prints")


def test_oracle_rejects_the_slice_of_a_neighbouring_print():
    session, checker, first, second = _program_with_distinct_prints()
    right = session.executable(("print", first))
    wrong = session.executable(("print", second))
    assert checker.slice_ok(first, right)
    assert not checker.slice_ok(first, wrong)


def test_oracle_fails_an_executable_that_never_terminates():
    session, checker, first, _second = _program_with_distinct_prints()
    program = parse("int main() { int x; x = 0; while (1) { x = x + 1; } return 0; }")
    check(program)
    endless = ExecutableSlice(program, {}, {})
    assert not checker.slice_ok(first, endless)
    assert not checker.removal_ok([checker.prints[first]], endless)


def _raise(*_args):
    raise RuntimeError("planted failure")


@pytest.mark.parametrize("step", ["op", "check"])
def test_a_raising_op_fails_every_query_it_was_meant_to_answer(step, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.ColdCorpus, "prepare", lambda self: None)
    monkeypatch.setattr(workloads.ColdCorpus, step, _raise)
    ops = 2
    result = workloads.run_pass("cold_corpus", 3, ops, tracing.NullRecorder(), str(tmp_path))
    fresh = workloads.ColdCorpus(3, tracing.NullRecorder(), None)
    expected = sum(fresh.queries_of(fresh.next_item()) for _ in range(ops))
    assert expected > 2 * ops
    assert result.attempted == result.failed == expected


def _drop_print(executable, keep_uid):
    """A copy of ``executable`` without the print that maps to
    ``keep_uid``."""
    planted = copy.deepcopy(executable)
    for proc in planted.program.procs:
        for block in _blocks(proc.body):
            for index, stmt in enumerate(block.stmts):
                if isinstance(stmt, A.Print) and planted.stmt_map.get(stmt.uid) == keep_uid:
                    del block.stmts[index]
                    return planted
    raise AssertionError("print not found")


def _blocks(block):
    yield block
    for stmt in block.stmts:
        if isinstance(stmt, A.If):
            yield from _blocks(stmt.then)
            if stmt.els is not None:
                yield from _blocks(stmt.els)
        elif isinstance(stmt, A.While):
            yield from _blocks(stmt.body)


def test_oracle_rejects_a_removal_that_drops_a_surviving_print():
    for index in range(gen.CORPUS_SIZE):
        session = SlicingSession(gen.corpus_program(index), kernel="csr")
        checker = oracle.Oracle(session.sdg, 1)
        statements = sorted(
            vid
            for vid, vertex in session.sdg.vertices.items()
            if vertex.kind == VertexKind.STATEMENT and vertex.proc != "main"
        )
        if not statements or not checker.runs:
            continue
        seed = statements[0]
        executable = workloads.executable_program(session.remove_feature(seed))
        reach = oracle.forward_reach(session.sdg, [seed])
        printed = {uid for _inputs, run_ in checker.runs for uid, _f, _v in run_.prints}
        surviving = [
            checker._uid(vid)
            for vid in checker.prints
            if vid not in reach and checker._uid(vid) in printed
        ]
        if not surviving:
            continue
        assert checker.removal_ok([seed], executable)
        assert not checker.removal_ok([seed], _drop_print(executable, surviving[0]))
        return
    raise AssertionError("no corpus program with a surviving print")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_issues_at_least_100_ops(name, tmp_path):
    result = workloads.run_pass(name, 3, None, tracing.NullRecorder(), str(tmp_path))
    assert run.MIN_OPS >= 100
    assert len(result.latencies) >= run.MIN_OPS
    assert result.failed == 0


def _round(latencies, probe, attempted=4, failed=0, keys=None):
    result = workloads.Pass(None, 0.5)
    result.keys = list(range(len(latencies))) if keys is None else keys
    result.latencies = latencies
    result.probes = [(probe, probe)] * len(latencies)
    result.attempted = attempted
    result.failed = failed
    return result


def test_each_op_is_scaled_to_the_nominal_host_speed_and_averaged_over_rounds():
    nominal = workloads.PROBE_NOMINAL_S
    rounds = [
        _round([0.1] * 100, nominal),
        _round([0.4] * 100, 2 * nominal),  # a host at half speed
        _round([0.3] * 100, nominal),
    ]
    assert workloads.op_latencies(rounds) == pytest.approx([0.2] * 100)
    assert workloads.op_latencies(rounds, scaled=False) == pytest.approx([0.8 / 3] * 100)
    metrics = workloads.summarize(rounds, 0.25, 30.0)
    assert metrics["latency_p50_ms"] == pytest.approx(200.0)
    assert metrics["queries_per_s"] == pytest.approx(4 / 20.0)
    assert metrics["setup_s"] == pytest.approx(0.75)


def test_an_op_is_matched_across_rounds_by_its_key():
    nominal = workloads.PROBE_NOMINAL_S
    rounds = [
        _round([0.1, 0.2, 0.3], nominal, keys=["a", "b", "c"]),
        _round([0.5, 0.1, 0.2], nominal, keys=["c", "a", "b"]),
    ]
    assert workloads.op_latencies(rounds) == pytest.approx([0.1, 0.2, 0.4])


def test_the_probe_runs_no_program_code_and_no_collection():
    collections = sum(stat["collections"] for stat in gc.get_stats())
    assert 0 < workloads.probe() < 1.0
    assert sum(stat["collections"] for stat in gc.get_stats()) == collections


def test_rounds_issue_the_same_ops_in_their_own_orders(tmp_path):
    first, again, second = (
        workloads.run_pass(
            "store_reopen", 7, 14, tracing.NullRecorder(), str(tmp_path), round_index
        )
        for round_index in (0, 0, 1)
    )
    assert first.keys == again.keys
    assert first.workload.op_answers == again.workload.op_answers
    assert first.keys != second.keys
    for key in set(first.keys) & set(second.keys):
        assert first.workload.op_answers[key] == second.workload.op_answers[key]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_store_spans_only_on_store_reopen(name, tmp_path):
    recorder = tracing.Recorder()
    ops = 8
    result = workloads.run_pass(name, 4, ops, recorder, str(tmp_path))
    workload = result.workload
    values = tracing.layer_metrics(
        recorder, ops, workload.ratio_counts, workload.store_bytes, 0.0,
        workload.replayer.mismatches,
    )
    store_spans = [span for span in recorder.spans if span[0].startswith("store.")]
    store_values = [value for key, value in values.items() if key.startswith("store.")]
    assert workload.replayer.mismatches == 0
    assert result.failed == 0
    if name == "store_reopen":
        assert store_spans and any(store_values)
    else:
        assert not store_spans and not any(store_values)


def test_benchmark_json_names_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(w["name"] for w in spec["workloads"]) <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_spec()
