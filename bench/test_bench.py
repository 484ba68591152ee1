"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

The runs are made in-process through ``run.main`` on a tiny pool pinned
here from the current solver (the cli part is the committed pool's), with
the set-up, probe and CLI sizes cut down.  Only the checks that must see
a fresh interpreter run ``run.py`` as a process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def run_process(*args: str, cwd: Path = wl.ROOT, python_flags=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *python_flags, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.fixture
def run_tiny(monkeypatch, capsys):
    """``run_tiny(pool_path, workload, trace)`` runs the benchmark in this
    process on the given pool and returns ``(meta, result)``."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "CLI_PICKS", 1)
    monkeypatch.setattr(layers, "PROBE_SECONDS", 0.0)
    monkeypatch.setattr(layers, "CLI_REPEATS", 1)

    def go(pool_path: Path, workload: str, trace: int) -> tuple[dict, dict]:
        monkeypatch.setattr(wl, "POOL_PATH", pool_path)
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
        assert code == 0
        *_, meta_line, result_line = capsys.readouterr().out.strip().splitlines()
        return json.loads(meta_line)["meta"], json.loads(result_line)

    return go


@pytest.fixture(scope="module")
def tiny_pool(tmp_path_factory) -> Path:
    wl.bootstrap_src()
    import splittree

    def entry(k, depths):
        realizable, levels = wl.pin_levels(splittree, k, depths)
        return {"k": k, "depths": list(depths), "realizable": realizable, "levels": levels}

    pool = {
        workload: {
            fam.name: [entry(fam.k, (fam.k + 2,) * 3 + (fam.k + 2 + j,)) for j in range(fam.picks)]
            for fam in families
        }
        for workload, families in wl.FAMILIES.items()
    }
    pool["sweep"] = {}
    for k, depths in [(k, d) for k, d in wl.sweep_instances() if len(d) >= 3][::300]:
        realizable, levels = wl.pin_levels(splittree, k, depths)
        pool["sweep"][wl.key(k, depths)] = [int(realizable), *levels]
    pool["cli"] = wl.load_pool()["cli"]
    path = tmp_path_factory.mktemp("pool") / "pool.json"
    path.write_text(json.dumps(pool))
    return path


def corrupt(pool_path: Path, tmp_path: Path, workload: str) -> Path:
    pool = json.loads(pool_path.read_text())
    if workload == "cli":
        for entry in [pool["cli"]["reference"], *pool["cli"]["small"]]:
            for pin in entry["calls"].values():
                pin[1] = "0" * 64
    elif workload == "sweep":
        for pin in pool["sweep"].values():
            pin[0] = 1 - pin[0]
    else:
        for entries in pool[workload].values():
            for entry in entries:
                entry["realizable"] = not entry["realizable"]
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(pool))
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_printed_with_its_unit(tiny_pool, run_tiny, workload, trace):
    meta, result = run_tiny(tiny_pool, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert meta["error_rate"] == 0
    for key in ("nproc", "cpu_model", "python", "python_flags", "git_commit", "src_lines"):
        assert key in meta


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["hard", "sweep", "cli"])
def test_corrupted_expectation_raises_error_rate(tiny_pool, run_tiny, tmp_path, workload,
                                                 trace):
    meta, result = run_tiny(corrupt(tiny_pool, tmp_path, workload), workload, trace)
    assert not result["correct"]
    assert result["failed"] > 0
    assert meta["error_rate"] > 0


def test_seed_fixes_the_inputs():
    pool = wl.load_pool()
    for workload in ("hard", "long", "sweep"):
        assert wl.instances(pool, workload, 7) == wl.instances(pool, workload, 7)
        assert wl.instances(pool, workload, 7) != wl.instances(pool, workload, 8)
    assert wl.cli_calls(pool, 7) == wl.cli_calls(pool, 7)
    assert wl.cli_calls(pool, 7) != wl.cli_calls(pool, 8)


def test_holdout_seed_picks_only_draws_no_other_seed_sees():
    pool = wl.load_pool()

    def keys(entries):
        return {wl.key(e["k"], e["depths"]) for e in entries}

    for workload, families in wl.FAMILIES.items():
        held = {wl.key(i.k, i.depths) for i in wl.instances(pool, workload, wl.HOLDOUT_SEED)}
        assert held <= set().union(*map(keys, pool["holdout"][workload].values()))
        assert not held & set().union(*map(keys, pool[workload].values()))
        assert len(held) == sum(fam.picks for fam in families)
    held_cli = {wl.key(i.k, i.depths) for i in wl.instances(pool, "cli", wl.HOLDOUT_SEED)[1:]}
    assert held_cli <= keys(pool["holdout"]["cli"]["small"])
    assert not held_cli & keys(pool["cli"]["small"])


def test_pool_pins_every_sweep_instance():
    pool = wl.load_pool()
    assert list(pool["sweep"]) == [wl.key(k, d) for k, d in wl.sweep_instances()]
    assert len(pool["sweep"]) == 3955


def test_fails_without_the_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_process("--workload", "hard", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_refuses_to_run_without_asserts():
    proc = run_process("--workload", "sweep", "--seed", "1", "--seconds", "0", "--trace", "0",
                       python_flags=("-O",))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
