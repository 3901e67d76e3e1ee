"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in expected
    }
    for m in expected:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    for m in SPEC["end_to_end"] if trace == "0" else ():
        assert result["metrics"][m["name"]]["value"] > 0


def test_specs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.spec_docs(w, 5) == workloads.spec_docs(w, 5)
        assert workloads.spec_docs(w, 5) != workloads.spec_docs(w, 6)


def test_wrappers_are_gone_after_a_traced_run(tmp_path, monkeypatch):
    import feedbeam.cli as cli
    from feedbeam.rng import RandomStream

    modules = [m for n, m in sys.modules.items() if n == "feedbeam" or n.startswith("feedbeam.")]
    before = [dict(vars(m)) for m in modules]
    generator = RandomStream.__dict__["generator"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(workloads.spec_docs("trace", 1, "tiny")[0]))
    monkeypatch.chdir(tmp_path)

    with Tracer() as tracer:
        assert RandomStream.__dict__["generator"] is not generator
        cli.run(cli.load_config(str(spec_path)), workers=1)
    names = {s[1] for s in tracer.spans}
    assert {"cli.run", "training.train_ensemble", "cli.csv_text", "rng.generator"} <= names

    assert RandomStream.__dict__["generator"] is generator
    for m, old in zip(modules, before):
        for name, value in old.items():
            assert vars(m)[name] is value, f"{m.__name__}.{name} still wrapped"


def test_traced_artifact_is_byte_identical(tmp_path, monkeypatch):
    import feedbeam.cli as cli

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(workloads.spec_docs("probe-sweep", 2, "tiny")[0]))
    monkeypatch.chdir(tmp_path)
    spec = cli.load_config(str(spec_path))
    cli.run(spec, workers=1)
    plain = Path(spec.output_path).read_bytes()
    with Tracer():
        cli.run(spec, workers=1)
    assert Path(spec.output_path).read_bytes() == plain


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_sees_through_map_chunks():
    spans = [
        _span(0, "outage.estimate_outage", 0.0, 10.0, trials=100),
        _span(1, "util.map_chunks", 1.0, 9.0, 0, chunks=2),
        _span(2, "training.train_ensemble", 2.0, 5.0, 1, B=4, frames=10, gain_sum=3.0, abs_sum=4.0),
        _span(3, "rng.generator", 6.0, 6.5, 1),
        _span(4, "bounds.outage_bound", 9.0, 9.5, 0),
        _span(5, "bounds.epsilon_max", 9.1, 9.2, 4),
    ]
    m = layer_metrics(spans)
    assert m["outage.self_s"] == pytest.approx(10.0 - 3.0 - 0.5 - 0.5)
    assert m["outage.trials_per_s"] == pytest.approx(100 / 6.0)
    assert m["util.map_s"] == 8.0 and m["util.chunks"] == 2
    assert m["training.trial_frames"] == 40 and m["training.gain_ratio"] == 0.75
    assert m["bounds.calls"] == 1 and m["bounds.busy_s"] == pytest.approx(0.5)


def test_artifact_mismatch_fails_every_op_of_that_execution(monkeypatch):
    monkeypatch.setattr(workloads, "check", lambda workload, docs, out: [None])
    args = type("Args", (), {"workload": "trace"})()
    docs = workloads.spec_docs("trace", 1, "tiny")
    executions = [
        {"kind": "plain", "dir": ".", "digests": {"trace.csv": "a"}},
        {"kind": "traced", "dir": ".", "digests": {"trace.csv": "b"}},
        {"kind": "plain", "dir": ".", "digests": {"trace.csv": "a"}},
        {"kind": "plain", "error": "exit 1"},
        {"kind": "setup"},
    ]
    attempted, failures = run.count_ops(args, docs, executions)
    assert attempted == 4 and len(failures) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for p in BENCH.glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout.strip() == ""
