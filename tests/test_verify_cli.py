import json

import pytest

import krfl.cli
import krfl.verify
from krfl import InvariantError
from krfl.cli import main
from krfl.modules import fusion_product, graded_character
from krfl.verify import (
    Report,
    suite_ok,
    verify_blocks,
    verify_dim,
    verify_lemma_length,
    verify_main,
    verify_point_independence,
    verify_remark_sl4,
    verify_suite,
)


class TestReport:
    def test_failure_needs_witness(self):
        with pytest.raises(ValueError):
            Report("x", {}, "fail", [])

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            Report("x", {}, "maybe")

    def test_json_shape(self):
        r = Report("x", {"rank": 1}, "pass")
        assert r.to_json() == {
            "name": "x",
            "params": {"rank": 1},
            "status": "pass",
            "details": [],
        }


class TestVerifyMain:
    def test_basic_pass(self):
        r = verify_main(1, 1, (1, 1))
        assert r.status == "pass"
        assert r.params == {"rank": 1, "node": 1, "xi": [1, 1]}

    def test_sl4_case(self):
        assert verify_main(3, 2, (2, 1)).status == "pass"

    def test_single_part(self):
        assert verify_main(2, 2, (3,)).status == "pass"

    def test_cap_produces_skip(self):
        r = verify_main(3, 2, (2, 2), cap=10)
        assert r.status == "skip"
        assert r.details[0]["check"] == "ambient dimension cap"

    def test_disagreement_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            krfl.verify, "gen_demazure", lambda n, i, xi: fusion_product(n, i, (2,))
        )
        r = verify_main(1, 1, (1, 1))
        assert r.status == "fail"
        checks = {d["check"] for d in r.details}
        assert "graded character equality" in checks
        assert "dimension equality" in checks

    def test_explicit_points_recorded(self):
        r = verify_main(1, 1, (2, 1), points=(3, -4))
        assert r.status == "pass"
        assert r.params["points"] == ["3", "-4"]


class TestVerifyDim:
    def test_sl2_two_one(self):
        r = verify_dim(1, 1, (2, 1))
        assert r.status == "pass"

    def test_single_column(self):
        assert verify_dim(1, 1, (1,)).status == "pass"

    def test_cap_skips(self):
        r = verify_dim(3, 2, (4, 4, 4, 4), cap=10)
        assert r.status == "skip"


class TestVerifyBlocks:
    @pytest.mark.parametrize("n,i,xi", [(1, 1, (2, 1)), (2, 2, (2, 2)), (3, 1, (3,))])
    def test_pass(self, n, i, xi):
        assert verify_blocks(n, i, xi).status == "pass"


class TestVerifyPoints:
    def test_pass_and_params(self):
        r = verify_point_independence(1, 1, (2, 1), trials=3, seed=7)
        assert r.status == "pass"
        assert len(r.params["point_sets"]) == 3
        assert r.params["seed"] == 7

    def test_deterministic_for_seed(self):
        a = verify_point_independence(1, 1, (1, 1), trials=2, seed=3)
        b = verify_point_independence(1, 1, (1, 1), trials=2, seed=3)
        assert a.params["point_sets"] == b.params["point_sets"]

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            verify_point_independence(1, 1, (1, 1), trials=1)


class TestVerifyLength:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pass(self, n):
        assert verify_lemma_length(n, samples=40, seed=2).status == "pass"


class TestVerifyRemark:
    def test_pass(self):
        r = verify_remark_sl4()
        assert r.status == "pass"
        assert r.details == []


class TestSuite:
    def test_small_suite_green_and_stable(self):
        a = verify_suite(max_rank=1, max_size=3)
        b = verify_suite(max_rank=1, max_size=3)
        assert suite_ok(a)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        names = {r.name for r in a}
        assert names == {"main-isomorphism", "block-dimensions", "block-order",
                         "length-additivity"}

    def test_suite_ok_rejects_failures(self):
        bad = Report("x", {}, "fail", [{"check": "c", "expected": 1, "got": 2}])
        assert not suite_ok([bad])
        assert suite_ok([Report("x", {}, "skip", [])])


class TestCli:
    def test_char_json(self, capsys):
        rc = main(["char", "--rank", "1", "--weight", "2", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == [
            {"weight": [-2], "mult": 1},
            {"weight": [0], "mult": 1},
            {"weight": [2], "mult": 1},
        ]

    def test_char_rank_mismatch(self, capsys):
        assert main(["char", "--rank", "2", "--weight", "1"]) == 2

    def test_fusion_matches_library(self, capsys):
        rc = main(
            ["fusion", "--rank", "1", "--node", "1", "--partition", "2,1",
             "--format", "json", "--no-cache"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        want = graded_character(fusion_product(1, 1, (2, 1))).to_json()
        assert data == want

    def test_demazure_csv(self, capsys):
        rc = main(
            ["demazure", "--rank", "1", "--ell", "2", "--lambda", "2",
             "--format", "csv", "--no-cache"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "weight,degree,mult"
        assert len(lines) == 4

    def test_gendemazure_table(self, capsys):
        rc = main(
            ["gendemazure", "--rank", "1", "--node", "1", "--partition", "2,1",
             "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("weight")
        assert len(out.strip().splitlines()) == 7

    def test_qfactor_file(self, tmp_path, capsys):
        src = tmp_path / "pi.json"
        src.write_text(
            json.dumps(
                [
                    {"node": 1, "exp": 0, "mult": 2},
                    {"node": 1, "exp": 2, "mult": 1},
                ]
            )
        )
        rc = main(
            ["qfactor", "--rank", "2", "--file", str(src), "--format", "json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [
            {"node": 1, "center": 1, "len": 2},
            {"node": 1, "center": 0, "len": 1},
        ]

    def test_verify_main_exit_zero(self, capsys):
        rc = main(
            ["verify-main", "--rank", "1", "--node", "1", "--partition", "1,1",
             "--format", "json"]
        )
        assert rc == 0
        [report] = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"

    def test_verify_main_exit_one_on_failure(self, capsys, monkeypatch):
        bad = Report(
            "main-isomorphism", {}, "fail",
            [{"check": "c", "expected": 1, "got": 2}],
        )
        monkeypatch.setattr(krfl.cli, "verify_main", lambda *a, **k: bad)
        rc = main(
            ["verify-main", "--rank", "1", "--node", "1", "--partition", "1"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fusion", "--rank", "2", "--node", "3", "--partition", "1",
             "--no-cache"],
            ["fusion", "--rank", "1", "--node", "1", "--partition", "1,1",
             "--points", "2,2", "--no-cache"],
            ["demazure", "--rank", "1", "--ell", "0", "--lambda", "2",
             "--no-cache"],
            ["char", "--rank", "2", "--weight", "1"],
            ["demazure", "--rank", "2", "--ell", "1", "--lambda", "1",
             "--no-cache"],
            ["qfactor", "--rank", "1", "--file", "no-such-dir/pi.json"],
            ["fusion", "--rank", "2", "--node", "1", "--partition", "2,0",
             "--no-cache"],
            ["verify-main", "--rank", "1", "--node", "1", "--partition", "1",
             "--cap", "0"],
            ["verify-suite", "--max-rank", "0"],
            ["verify-suite", "--max-size", "0"],
            ["verify-suite", "--cap", "-1"],
        ],
        ids=[
            "node-out-of-range",
            "repeated-points",
            "level-zero",
            "char-weight-length",
            "demazure-weight-length",
            "qfactor-unreadable-file",
            "fusion-zero-part",
            "verify-main-cap-zero",
            "verify-suite-max-rank-zero",
            "verify-suite-max-size-zero",
            "verify-suite-cap-negative",
        ],
    )
    def test_bad_input_exits_two_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("krfl: error: ")

    @pytest.mark.parametrize("points", ["abc", "1/0"], ids=["not-a-number", "zero-denominator"])
    def test_bad_points_exit_two_through_argparse(self, points, capsys):
        argv = ["fusion", "--rank", "1", "--node", "1", "--partition", "1",
                "--points", points, "--no-cache"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert "expected comma-separated rationals" in err[-1]

    @pytest.mark.parametrize(
        "text",
        [
            '[{"node": 1}]',
            '{"a": 1}',
            '[{"node": 1, "exp": 0, "mult": 1.5}]',
        ],
        ids=["missing-keys", "not-a-list", "fractional-mult"],
    )
    def test_malformed_qfactor_exits_two_with_one_line(self, text, tmp_path, capsys):
        src = tmp_path / "pi.json"
        src.write_text(text)
        assert main(["qfactor", "--rank", "1", "--file", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("krfl: error: ")

    def test_engine_fault_is_not_bad_input(self, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("closure is not action stable")

        monkeypatch.setattr(krfl.cli, "verify_main", broken)
        with pytest.raises(InvariantError):
            main(["verify-main", "--rank", "1", "--node", "1", "--partition", "1"])

    def test_verify_suite_small(self, capsys):
        rc = main(
            ["verify-suite", "--max-rank", "1", "--max-size", "2",
             "--format", "json"]
        )
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "pass" for r in reports)


class TestCache:
    def test_round_trip_and_hit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["fusion", "--rank", "1", "--node", "1", "--partition", "1,1",
                "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1

        # plant a sentinel character under the same descriptor: a second
        # run must emit the sentinel, proving the cache was actually read
        stored = json.loads(entries[0].read_text())
        stored["character"] = {
            "rank": 1,
            "entries": [{"weight": [9], "degree": 9, "mult": 9}],
        }
        entries[0].write_text(json.dumps(stored))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["entries"][0]["mult"] == 9

        # --no-cache bypasses the sentinel and recomputes
        assert main(argv + ["--no-cache"]) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_descriptor_mismatch_is_ignored(self, tmp_path, monkeypatch, capsys):
        from krfl.cache import load, store
        from krfl.modules import GradedCharacter

        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        desc = {"kind": "fusion", "rank": 1, "xi": [1]}
        gc = GradedCharacter(1, {((1,), 0): 1})
        store(desc, gc)
        assert load(desc) == gc
        path = next((tmp_path / "cache").glob("*.json"))
        data = json.loads(path.read_text())
        data["descriptor"] = {"kind": "fusion", "rank": 2, "xi": [1]}
        path.write_text(json.dumps(data))
        assert load(desc) is None

    def test_entry_from_older_engine_is_a_miss(self, tmp_path, monkeypatch):
        import krfl.cache
        from krfl.cache import ENGINE_VERSION, load, store
        from krfl.modules import GradedCharacter

        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        desc = {"kind": "fusion", "rank": 1, "xi": [1]}
        gc = GradedCharacter(1, {((1,), 0): 1})
        monkeypatch.setattr(krfl.cache, "ENGINE_VERSION", ENGINE_VERSION - 1)
        store(desc, gc)
        assert load(desc) == gc
        monkeypatch.setattr(krfl.cache, "ENGINE_VERSION", ENGINE_VERSION)
        assert load(desc) is None
        # an unversioned entry, as written before versioning, planted at
        # the current entry's path is rejected by its descriptor
        store(desc, gc)
        path = krfl.cache._entry_path(krfl.cache._stamped(desc))
        data = json.loads(path.read_text())
        assert data["descriptor"] == {**desc, "engine": ENGINE_VERSION}
        data["descriptor"] = desc
        path.write_text(json.dumps(data))
        assert load(desc) is None

    def test_fusion_part_order_shares_one_entry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        base = ["fusion", "--rank", "1", "--node", "1", "--format", "json"]
        assert main(base + ["--partition", "2,1", "--points", "0,5"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--partition", "1,2", "--points", "5,0"]) == 0
        assert capsys.readouterr().out == first
        (entry,) = (tmp_path / "cache").glob("*.json")
        desc = json.loads(entry.read_text())["descriptor"]
        assert desc["xi"] == [2, 1] and desc["points"] == ["0", "5"]
        assert main(base + ["--partition", "1,2"]) == 0
        assert main(base + ["--partition", "2,1"]) == 0
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    def test_gendemazure_part_order_shares_one_entry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        base = ["gendemazure", "--rank", "1", "--node", "1", "--format", "json"]
        assert main(base + ["--partition", "2,1"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--partition", "1,2"]) == 0
        assert capsys.readouterr().out == first
        (entry,) = (tmp_path / "cache").glob("*.json")
        assert json.loads(entry.read_text())["descriptor"]["xi"] == [2, 1]

    def test_corrupt_file_is_ignored(self, tmp_path, monkeypatch):
        from krfl.cache import load, store
        from krfl.modules import GradedCharacter

        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        desc = {"kind": "x"}
        store(desc, GradedCharacter(1, {((0,), 0): 1}))
        path = next((tmp_path / "cache").glob("*.json"))
        path.write_text("{ not json")
        assert load(desc) is None

    def test_non_object_entry_is_a_miss(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KRFL_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["fusion", "--rank", "1", "--node", "1", "--partition", "1,1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        (entry,) = (tmp_path / "cache").glob("*.json")
        entry.write_text("[]")
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert isinstance(json.loads(entry.read_text()), dict)
