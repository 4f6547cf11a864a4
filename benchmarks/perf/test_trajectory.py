"""The trajectory file format shared by the bench scripts."""

from __future__ import annotations

import json
import sys

import pytest

from benchmarks.perf import trajectory


def test_absent_or_corrupt_file_loads_empty(tmp_path):
    assert trajectory.load(tmp_path / "missing.json") == []
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("[{not json")
    assert trajectory.load(corrupt) == []
    not_a_list = tmp_path / "object.json"
    not_a_list.write_text('{"workload": "paper"}')
    assert trajectory.load(not_a_list) == []


def test_append_keeps_earlier_records(tmp_path):
    path = tmp_path / "sub" / "BENCH_x.json"
    first = trajectory.append(path, "paper", {"value": 1})
    second = trajectory.append(path, "small", {"value": 2})
    assert list(first)[:4] == ["timestamp", "workload", "cpu_count", "python"]
    assert trajectory.load(path) == [first, second]
    assert [r["value"] for r in json.loads(path.read_text())] == [1, 2]
    assert [p.name for p in path.parent.iterdir()] == ["BENCH_x.json"]


@pytest.mark.parametrize(
    "argv, workload",
    [([], "paper"), (["--small"], "small"), (["--million"], "million")],
)
def test_main_picks_the_workload_and_honours_out(
    tmp_path, monkeypatch, capsys, argv, workload
):
    out = tmp_path / "out.json"

    def run(name, path):
        return trajectory.append(path, name, {"ran": True})

    monkeypatch.setattr(
        sys, "argv", ["bench", *argv, "--out", str(out)]
    )
    trajectory.main(run, "test bench", rungs=("small", "million"))
    (record,) = trajectory.load(out)
    assert record["workload"] == workload
    assert json.loads(capsys.readouterr().out) == record


def test_main_rejects_two_workloads(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench", "--small", "--million"])
    with pytest.raises(SystemExit):
        trajectory.main(lambda name, path: {}, "x", rungs=("small", "million"))
