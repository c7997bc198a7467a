"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q

Tiny runs (one unit of work, or one short roster pass) of every workload,
the counting of a deliberately wrong pinned value, and the restoration of
every ccakit function after tracing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

sys.path.insert(0, str(run.SRC))
import ccakit  # noqa: E402


@pytest.fixture
def short_sweep(monkeypatch):
    """A sweep roster of one group, so a pass takes about a second."""
    monkeypatch.setattr(workloads, "SWEEP_ROSTER", ("f21",))


def _result(capsys, argv: list[str]) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(capsys, short_sweep, workload, trace):
    out = _result(
        capsys, ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace]
    )
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for value in out["metrics"].values():
        assert isinstance(value["value"], float)
    if trace == "0":
        assert all(out["metrics"][k]["value"] > 0 for k in END_TO_END)


@pytest.mark.parametrize(
    "workload, table, key, wrong, seconds",
    [
        ("sweep", "SWEEP_PINNED", "f21", (51, 2), "0"),
        ("verdict-stream", "STREAM_PINNED", 0, (False, 1), "0"),
        # A class count is checked once all of a group's sets are classified.
        ("iso-classify", "ISO_PINNED", "f21", (51, 50), "3"),
    ],
)
def test_wrong_pinned_value_is_counted(
    capsys, monkeypatch, short_sweep, workload, table, key, wrong, seconds
):
    pinned = getattr(workloads, table)
    patched = dict(pinned) if isinstance(pinned, dict) else list(pinned)
    patched[key] = wrong
    monkeypatch.setattr(workloads, table, patched)
    if workload == "iso-classify":
        monkeypatch.setattr(workloads, "ISO_GROUPS", ("f21",))
    out = _result(capsys, ["--workload", workload, "--seed", "0", "--seconds", seconds])
    assert out["correct"] is False
    assert 1 <= out["failed"] <= out["attempted"]
    assert set(out["metrics"]) == set(END_TO_END)


def test_trace_wrappers_leave_ccakit_as_found():
    before = tracing.snapshot()
    graph = ccakit.f21_noncca_graph()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert tracing.snapshot() != before
            verdict = ccakit.cca_verdict(graph)
            1 / 0
    assert tracing.snapshot() == before
    assert not verdict.is_cca
    # cca_verdict reaches the rest through names bound inside the package.
    assert tracer.calls["cca.cca_verdict"] == 1
    assert tracer.calls["cca.cca_verdict_with_group"] == 1
    assert tracer.calls["perms.all_block_systems"] == 1
    assert tracer.calls["search.color_preserving_group"] == 1
    assert tracer.calls["perms.PermGroup"] >= 1
    ids = {span[0] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
    # Untraced calls after uninstalling record nothing.
    spans = len(tracer.spans)
    ccakit.cca_verdict(graph)
    assert len(tracer.spans) == spans


def test_self_time_excludes_children():
    graph = ccakit.f21_noncca_graph()
    tracer = tracing.Tracer()
    with tracer:
        tracer.span("op.test", ccakit.cca_verdict, graph)
    child = tracer.total_s["cca.cca_verdict"]
    assert tracer.self_s["op.test"] == pytest.approx(tracer.total_s["op.test"] - child)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["op.test"])


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
