import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splittree import oracle
from splittree.cli import main
from splittree.treebuild import parse_tree, validate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_realizable_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9")
        assert code == 0
        assert out.startswith("realizable")

    def test_unrealizable_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--k", "2", "--depths", "0,0")
        assert code == 1
        assert out.startswith("unrealizable")

    def test_bad_k_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--k", "1", "--depths", "3")
        assert code == 2
        assert "input error" in err

    def test_negative_depth_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "decide", "--k", "2", "--depths", "3,-1")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--max-seconds", "nan"),
        ("--max-seconds", "-1"),
        ("--max-level-size", "-1"),
    ])
    def test_invalid_limit_exit_two(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9",
                                 flag, value)
        assert code == 2
        assert out == "" and "must be >= 0" in err

    def test_level_limit_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--k", "6", "--depths", "4,5,6,7,8,9", "--max-level-size", "2"
        )
        assert code == 3
        assert "limit" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["realizable"] is True
        assert len(payload["witness"]) == 5
        assert payload["witness"][0]["parent"] == [5, 7, 7, 8, 8, 9]
        assert "wall_time_s" not in payload["stats"]

    def test_json_deterministic(self, capsys):
        a = run_cli(capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "json")
        b = run_cli(capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "json")
        assert a == b

    def test_space_separated_depths(self, capsys):
        code, _, _ = run_cli(capsys, "decide", "--k", "2", "--depths", "1 1")
        assert code == 0

    def test_no_prune_flag(self, capsys):
        code, _, _ = run_cli(capsys, "decide", "--k", "6", "--depths", "5,7,7,8,8,9", "--no-prune")
        assert code == 0

    @pytest.mark.parametrize("k,depths", [
        ("4", "7,7,9,9,12,14,14,14"),
        ("3", "6,6,7,8,9,9,10,10,11,12"),  # 9 signatures at z = 2, over 2**3
    ])
    def test_no_prune_past_the_pruned_level_bound(self, capsys, k, depths):
        code, out, _ = run_cli(capsys, "decide", "--k", k, "--depths", depths, "--no-prune")
        assert code == 0 and out.startswith("realizable")

    def test_file_instance(self, capsys, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("6\n5 7 7 8 8 9\n")
        code, out, _ = run_cli(capsys, "decide", "--file", str(path))
        assert code == 0 and out.startswith("realizable")

    def test_file_and_flags_conflict(self, capsys, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("2\n1 1\n")
        code, _, _ = run_cli(capsys, "decide", "--file", str(path), "--k", "2", "--depths", "1,1")
        assert code == 2

    def test_missing_file_exit_io(self, capsys):
        code, _, _ = run_cli(capsys, "decide", "--file", "/nonexistent/instance.txt")
        assert code == 4

    def test_non_utf8_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_bytes(b"3\n1,\xff2\n")
        code, out, err = run_cli(capsys, "decide", "--file", str(path))
        assert code == 2
        assert out == "" and "input error" in err and "UTF-8" in err


class TestBuild:
    def test_json_tree_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "build", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "json"
        )
        assert code == 0
        tree = parse_tree(out)
        assert validate(6, tree, [5, 7, 7, 8, 8, 9]).valid

    def test_single_leaf(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--k", "2", "--depths", "0")
        assert code == 0
        tree = parse_tree(out)
        assert tree.root.is_leaf()

    def test_unrealizable_no_file(self, capsys, tmp_path):
        out_file = tmp_path / "tree.json"
        code, _, _ = run_cli(
            capsys, "build", "--k", "3", "--depths", "1,2,3", "--out", str(out_file)
        )
        assert code == 1
        assert not out_file.exists()

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "tree.json"
        code, _, _ = run_cli(
            capsys, "build", "--k", "2", "--depths", "1,2,2", "--out", str(out_file)
        )
        assert code == 0
        tree = parse_tree(out_file.read_text())
        assert validate(2, tree, [1, 2, 2]).valid

    def test_unwritable_out_exit_io(self, capsys):
        code, _, _ = run_cli(
            capsys, "build", "--k", "2", "--depths", "1,1", "--out", "/nonexistent/dir/t.json"
        )
        assert code == 4

    def test_dot_format(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--k", "2", "--depths", "1,1", "--format", "dot")
        assert code == 0
        assert out.count('[label="1"]') == 2

    def test_too_deep_for_json_exit_three(self, capsys):
        # a k = 2 caterpillar of 339 levels: too deep for the JSON writer under
        # the default recursion limit
        depths = ",".join(map(str, [*range(1, 340), 339]))
        code, out, err = run_cli(capsys, "build", "--k", "2", "--depths", depths)
        assert code == 3
        assert out == "" and "--format dot" in err


class TestTrace:
    def test_reference_text(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "6", "--depths", "5,7,7,8,8,9")
        assert code == 0
        assert "M_5: {37888, 45889, 47788, 55779, 55788}" in out
        assert "M_2: {16, 24, 33}" in out
        assert "M_1: {0}" in out

    def test_two_levels_one_arrow(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "2", "--depths", "1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [lv["z"] for lv in payload["levels"]] == [2, 1]
        arrows = [a for lv in payload["levels"] for a in lv["arrows"]]
        assert len(arrows) == 1

    def test_unit_edge_levels_single(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--k", "2", "--depths", "3,3,3,3")
        assert code == 0
        for line in out.strip().splitlines():
            assert line.count(",") == 0

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "rank=same" in out

    def test_deterministic(self, capsys):
        runs = {
            run_cli(capsys, "trace", "--k", "6", "--depths", "5,7,7,8,8,9", "--format", "json")[1]
            for _ in range(3)
        }
        assert len(runs) == 1


class TestOracle:
    def test_kraft(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--k", "2", "--depths", "2,2,2,2", "--method", "kraft"
        )
        assert code == 0 and out.startswith("realizable")

    def test_enumerate_over_limit_exit_three(self, capsys):
        code, _, _ = run_cli(
            capsys, "oracle", "--k", "6", "--depths", "5,7,7,8,8,9", "--method", "enumerate"
        )
        assert code == 3

    def test_recursive_unrealizable(self, capsys):
        code, _, _ = run_cli(
            capsys, "oracle", "--k", "3", "--depths", "1,2,3", "--method", "recursive"
        )
        assert code == 1

    def test_kraft_wrong_k_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "--k", "3", "--depths", "1,2", "--method", "kraft")
        assert code == 2

    def test_negative_depths_exit_two(self, capsys):
        code, _, _ = run_cli(
            capsys, "oracle", "--k", "3", "--depths", "1,-2", "--method", "recursive"
        )
        assert code == 2

    def test_zero_max_n_is_a_limit(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--k", "3", "--depths", "1,2", "--max-n", "0")
        assert code == 3
        assert "n <= 0" in err

    def test_negative_max_n_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--k", "3", "--depths", "1,2", "--max-n", "-1")
        assert code == 2
        assert "max_n must be >= 0" in err

    def test_unknown_method_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--k", "2", "--depths", "1,1", "--method", "psychic"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestSelftest:
    def test_tiny_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--max-n", "3", "--max-value", "4", "--ks", "2,3")
        assert code == 0
        assert "selftest passed" in out

    def test_single_zero(self, capsys):
        code, _, _ = run_cli(capsys, "selftest", "--max-n", "1", "--max-value", "0", "--ks", "2")
        assert code == 0

    def test_non_integer_k_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--max-n", "1", "--max-value", "0",
                                 "--ks", "2,x")
        assert code == 2
        assert out == "" and "k >= 2" in err

    @pytest.mark.parametrize("max_n,max_value", [("0", "4"), ("-1", "4"), ("2", "-1")])
    def test_empty_sweep_exit_two(self, capsys, max_n, max_value):
        code, out, err = run_cli(capsys, "selftest", "--max-n", max_n, "--max-value", max_value,
                                 "--ks", "2")
        assert code == 2
        assert out == "" and "input error" in err

    def test_disagreement_exit_five(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "kraft_check", lambda d: False)
        code, out, _ = run_cli(capsys, "selftest", "--max-n", "1", "--max-value", "0", "--ks", "2")
        assert code == 5
        assert out.startswith("FAIL: disagreement on k=2 depths=[0]")


def test_build_refuses_invalid_tree_under_optimize():
    # the emitted tree must be checked even when asserts are stripped
    # (cmd_build imports treebuild when it runs, so the patch goes there)
    script = (
        "import sys, splittree.cli as cli, splittree.treebuild as treebuild\n"
        "from splittree.treebuild import ValidationReport\n"
        "treebuild.validate = lambda *args: "
        "ValidationReport(False, [(-1, 'test', 'forced')], [], False)\n"
        "sys.exit(cli.main(['build', '--k', '6', '--depths', '5,7,7,8,8,9']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert "fails validation" in proc.stderr


def _pinned_instances():
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
    yield pytest.param(pool["cli"]["reference"], id="reference")
    for group, entries in (("small", pool["cli"]["small"]),
                           ("holdout", pool["holdout"]["cli"]["small"])):
        for i, entry in enumerate(entries):
            yield pytest.param(entry, id=f"{group}{i}")


@pytest.mark.parametrize("entry", list(_pinned_instances()))
def test_pinned_stdout(capsys, entry):
    # every CLI call pinned in bench/pool.json: same exit code, same stdout bytes
    depths = ",".join(map(str, entry["depths"]))
    assert len(entry["calls"]) == 8
    for variant, (exit_code, sha256) in entry["calls"].items():
        command, _, fmt = variant.partition("-")
        argv = [command, "--k", str(entry["k"]), "--depths", depths]
        if command == "oracle":
            argv += ["--method", "kraft" if entry["k"] == 2 else "recursive"]
        else:
            argv += ["--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha256), argv
