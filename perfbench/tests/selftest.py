"""Tests of the benchmark itself: span arithmetic, wrapper removal, and a
tiny run of every workload that must print every metric BENCHMARK.json
names, with its unit.

The file name keeps it out of the library's own test run; run it with
``python3 -m pytest perfbench/tests/selftest.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "QSSLAB_WORKERS")


def test_self_times_on_synthetic_tree():
    # root [0, 10]: children a [1, 4] and b [3, 6] overlap (union 5 s),
    # c [8, 12] is clipped to [8, 10]; a has child g [2, 3].
    names = ["root", "a", "b", "c", "g"]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tr.self_times(starts, ends, parents)
    assert selfs == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    assert len(names) == len(selfs)


def test_self_times_of_nested_spans_add_up_to_root():
    starts = [0.0, 0.5, 0.6, 2.0, 2.5, 7.0]
    ends = [9.0, 1.5, 0.9, 6.0, 3.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 0]
    assert sum(tr.self_times(starts, ends, parents)) == pytest.approx(9.0)


def test_op_errors_flag_malformed_trees_and_uncovered_time():
    # op 0 [0, 10] has layers a [1, 4] and g [2, 3] inside a: self times
    # add up, and the layers cover 3 of 10 s. op 1 [20, 30] has children
    # b [21, 25] and c [24, 29] that overlap, so its self times do not.
    starts = [0.0, 1.0, 2.0, 20.0, 21.0, 24.0]
    ends = [10.0, 4.0, 3.0, 30.0, 25.0, 29.0]
    parents = [-1, 0, 1, -1, 3, 3]
    selfs = tr.self_times(starts, ends, parents)
    ok, overlap = tr.op_errors(starts, ends, parents, selfs)
    assert ok == [] and len(overlap) == 1 and "add up" in overlap[0]
    low, _ = tr.op_errors(starts, ends, parents, selfs, min_layer_share=0.5)
    assert len(low) == 1 and "cover 30.0000%" in low[0]
    assert tr.op_errors(starts, ends, parents, selfs, 0.3)[0] == []


def test_wrappers_are_removed_after_tracing():
    from qsslab import qss, states

    modules = tr.library_modules()
    targets = tr.SPAN_TARGETS + tr.COUNT_TARGETS

    def originals():
        out = {}
        for mod, path, _ in targets:
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            out[path] = vars(owner)[attr]
        return out

    before = originals()
    t = tr.Tracer()
    t.install(modules)
    assert not t.missing
    assert all(originals()[k] is not v for k, v in before.items())
    t.active = True
    with t.span("bench.op"):
        qss.classify(states.werner(0.9))
    t.active = False
    t.restore()
    assert originals() == before
    assert all(originals()[k] is v for k, v in before.items())
    assert "qss.classify" in t.names and t.counters["qss.route.full-rank"] == 1


def tiny(name):
    import workloads as w

    return {
        "probe-2q": lambda: w.Probe2Q(restarts=2, iters=20, fixed_ops=2, pool=4),
        "classify-mixed": lambda: w.ClassifyMixed(budget=60, cycles=1, pool=2),
        "cli-probe": lambda: w.CliProbe(budget=500, fixed_ops=1, pool=2),
    }[name]()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["probe-2q", "classify-mixed", "cli-probe"])
def test_tiny_run_prints_every_metric_with_unit(name, trace, monkeypatch,
                                                capsys, tmp_path):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)], workload=tiny(name))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if trace:
        assert (tmp_path / f"spans-{name}-3.csv.gz").is_file()


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe-2q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
