"""Tests of the benchmark itself: inputs, known answers, and trace counts.

    python3 -m pytest perfbench -q

They run every command of every workload once on the default seed, so they
take about two minutes.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

DEFAULT_SEED = json.loads((Path(__file__).parent / "baseline.json").read_text())["default_seed"]


def _built(workload, tmp_path):
    """Import daffine afresh and generate the workload's documents on the default seed."""
    lib = run.import_daffine()
    return lib, workloads.build(lib, workload, DEFAULT_SEED, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_round_trip_through_the_printer(workload, tmp_path):
    lib, commands = _built(workload, tmp_path)
    documents = sorted(tmp_path.glob("*.daff"))
    assert documents
    parse_error = sys.modules["daffine.errors"].ParseError
    for path in documents:
        text = path.read_text()
        if path.name == workloads.TRUNCATED_DOC:
            with pytest.raises(parse_error):
                lib.dsl.parse(text)
            continue
        doc = lib.dsl.parse(text)
        assert lib.dsl.parse(lib.dsl.print_document(doc)) == doc
        assert lib.dsl.print_document(doc) == text


@pytest.mark.parametrize("workload", ["atlas-glue", "doc-frontend"])
def test_known_answers_hold_on_the_default_seed(workload, tmp_path):
    lib, commands = _built(workload, tmp_path)
    _, attempted, failed, _ = run.measure(lib, commands, seconds=0)
    assert (attempted, failed) == (len(commands), 0)


def test_atlas_glue_keeps_failing_and_passing_atlases(tmp_path):
    _, commands = _built("atlas-glue", tmp_path)
    expected = [c.expect for c in commands]
    assert expected.count(1) and expected.count(0)
    assert all(c.edge is not None for c in commands if c.expect == 1)


def test_pointwise_laws_bypasses_the_polynomial_kernel(tmp_path):
    lib, commands = _built("pointwise-laws", tmp_path)
    metrics, attempted, failed, _, sane = run.measure_traced(
        lib, commands, seconds=0, spans_path=tmp_path / "spans.jsonl.gz"
    )
    assert (attempted, failed, sane) == (2 * len(commands), 0, True)
    assert metrics["exact.Poly.mul.calls"] == 0
    assert metrics["exact.Vec.dot.calls"] > 0


def test_a_perturbed_edge_is_recognised_only_in_fail_records():
    report = "PASS tri: triangle a->b->c\nFAIL tri: inverse pair b<->c -- gamma00[0]: a->c\nFAILED (2 checks)\n"
    assert run.names_edge(report, ("c", "b"))
    assert not run.names_edge(report, ("a", "b"))
    assert not run.names_edge(report, ("a", "c"))


def test_tail_leaves_ten_values_beyond_it():
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and percentile == pytest.approx(75.0)


# A few leading commands per workload keep the cross-process check short.
PREFIX = {"atlas-glue": 4, "pointwise-laws": 6, "doc-frontend": 22}


def _counts_in_subprocess(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, __file__, workload, str(PREFIX[workload])],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_gauges_repeat_across_processes(workload):
    first = _counts_in_subprocess(workload, "1")
    second = _counts_in_subprocess(workload, "2")
    assert first == second
    assert any(v for k, v in first.items() if k.endswith(".calls"))
    if workload == "atlas-glue":
        assert first["exact.poly.max_degree"] > 0 and first["atlas.compose.calls"] > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "verdict_s.p50", "verdict_s.tail", "peak_rss_mb"
    }


def _print_counts(workload: str, prefix: int) -> None:
    """Trace the first ``prefix`` commands once; print their counts and gauges."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        lib = run.import_daffine()
        commands = workloads.build(lib, workload, DEFAULT_SEED, Path(tmp))[:prefix]
        metrics, _, failed, _, sane = run.measure_traced(lib, commands, 0, Path(tmp) / "spans.jsonl.gz")
    assert failed == 0 and sane
    print(json.dumps({k: v for k, v in metrics.items() if k.endswith(".calls") or k.startswith("exact.poly.")}))


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    _print_counts(sys.argv[1], int(sys.argv[2]))
