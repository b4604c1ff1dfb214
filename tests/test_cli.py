import csv
import hashlib
import json
import os
import re

import numpy as np
import pytest

from adamerge import calibration, data, flops
from adamerge.cli import build_run_config, main, parse_config_spec
from adamerge.runtime import load_weights, run_images


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Weights + calibration set + stats shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    weights = str(root / "weights")
    dataset = str(root / "data")
    stats = str(root / "stats.json")
    assert main(["synth-weights", "--dim", "16", "--heads", "2", "--d-ff",
                 "32", "--layers", "4", "--classes", "5", "--seed", "3",
                 "--out", weights]) == 0
    assert main(["synth", "--images", "8", "--tokens", "24", "--dim", "16",
                 "--redundancy", "0.5", "--seed", "4", "--out", dataset]) == 0
    assert main(["calibrate", "--weights", weights, "--dataset", dataset,
                 "--r-max", "6", "--passes", "2", "--out", stats]) == 0
    return {"root": root, "weights": weights, "dataset": dataset,
            "stats": stats}


class TestSynth:
    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"ds{k}"
            assert main(["synth", "--images", "3", "--tokens", "8", "--dim",
                         "4", "--redundancy", "0.7", "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append((out / "tensors.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("ADAMERGE_SEED", "77")
        main(["synth", "--images", "1", "--tokens", "4", "--dim", "2",
              "--out", str(a)])
        main(["synth", "--images", "1", "--tokens", "4", "--dim", "2",
              "--seed", "77", "--out", str(b)])
        assert (a / "tensors.bin").read_bytes() == \
            (b / "tensors.bin").read_bytes()


class TestCalibrate:
    def test_stats_schema(self, workspace):
        doc = json.loads(open(workspace["stats"]).read())
        assert doc["version"] == 1
        assert doc["num_layers"] == 4
        assert len(doc["mu"]) == 4 and len(doc["sigma"]) == 4
        assert all(s > 0 for s in doc["sigma"])


class TestRun:
    def test_adaptive_run_csv(self, workspace, tmp_path):
        out_csv = str(tmp_path / "run.csv")
        code = main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge", "--r-max",
                     "6", "--stats", workspace["stats"],
                     "--out-csv", out_csv])
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 8 * 4
        assert set(rows[0]) == {"image_id", "layer", "n_before", "r",
                                "sbar", "z", "r_clamped", "mean_fallback",
                                "empty_b"}
        # ledger: n_before chains across layers
        for img in range(8):
            recs = [r for r in rows if r["image_id"] == str(img)]
            for a, b in zip(recs, recs[1:]):
                assert int(b["n_before"]) == int(a["n_before"]) - int(a["r"])

    def test_clamped_r_is_flagged_in_csv(self, workspace, tmp_path):
        # 24 tokens: |A| is 12, 6, 3 and 2 at the four layers, all below 200
        out_csv = tmp_path / "run.csv"
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "tome", "--r", "200",
                     "--out-csv", str(out_csv)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 8 * 4
        assert all(r["r_clamped"] == "1" for r in rows)
        assert [r["r"] for r in rows[:4]] == ["12", "6", "3", "2"]

    def test_summary_flops_are_the_mean_over_images(self, workspace, capsys):
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge", "--r-max",
                     "6", "--stats", workspace["stats"]]) == 0
        shown = re.search(r"FLOPs \(mean over images\): ([\d.e+-]+) G "
                          r"\(reduction ([\d.]+)%", capsys.readouterr().out)
        assert shown

        weights = load_weights(workspace["weights"])
        images, _ = data.load_dataset(workspace["dataset"])
        cfg = build_run_config("adamerge", r_max=6,
                               stats=calibration.load_stats(workspace["stats"]))
        reps = [flops.trace_flops(tr, weights.dims)
                for _, tr in run_images(weights, images, cfg)]
        mean_reduction = f"{np.mean([r.reduction_pct for r in reps]):.1f}"
        # adaptive r differs per image, so the first image is not the mean
        assert f"{reps[0].reduction_pct:.1f}" != mean_reduction
        assert shown.group(2) == mean_reduction
        # a CLI-scale model is well under 0.001 GFLOPs; it must not print 0
        assert float(shown.group(1)) > 0
        assert shown.group(1) == \
            f"{np.mean([r.grand_total for r in reps]) / 1e9:.4g}"

    def test_rerun_csv_byte_identical(self, workspace, tmp_path):
        outs = []
        for k in range(2):
            p = tmp_path / f"run{k}.csv"
            assert main(["run", "--weights", workspace["weights"],
                         "--dataset", workspace["dataset"], "--method",
                         "tome", "--r", "3", "--out-csv", str(p)]) == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_csv(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["run", "--weights", workspace["weights"], "--dataset",
                workspace["dataset"], "--method", "tome", "--r", "3"]
        assert main(base + ["--out-csv", str(a)]) == 0
        assert main(base + ["--threads", "4", "--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_stats_is_data_error(self, workspace):
        code = main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge",
                     "--r-max", "6"])
        assert code == 2


class TestCompare:
    def test_table_and_outputs(self, workspace, tmp_path):
        out_csv = str(tmp_path / "cmp.csv")
        out_svg = str(tmp_path / "cmp.svg")
        code = main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "tome:r=3",
                     "--config", "adamerge:r_max=6",
                     "--config", "sw-only:r=3",
                     "--config", "adp-only:r_max=6",
                     "--stats", workspace["stats"],
                     "--out-csv", out_csv, "--out-svg", out_svg])
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert [r["config"] for r in rows] == \
            ["tome:r=3", "adamerge:r_max=6", "sw-only:r=3", "adp-only:r_max=6"]
        assert all(r["accuracy"] == "n/a" for r in rows)
        svg = open(out_svg).read()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_labels_give_accuracy(self, workspace, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps([0] * 8))
        out_csv = str(tmp_path / "cmp.csv")
        assert main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "none", "--labels", str(labels),
                     "--out-csv", out_csv]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert rows[0]["accuracy"] != "n/a"
        assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0

    def test_bad_config_spec(self, workspace):
        assert main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "bogus:r=3"]) == 2

    def test_parse_config_spec(self):
        method, opts = parse_config_spec("adamerge:r_max=23,temperature=0.5")
        assert method == "adamerge"
        assert opts == {"r_max": 23, "temperature": 0.5}


class TestViz:
    def test_none_all_survive(self, workspace, tmp_path):
        out_csv = tmp_path / "viz.csv"
        out_svg = tmp_path / "viz.svg"
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "none",
                     "--out-csv", str(out_csv), "--out-svg", str(out_svg)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert all(r["status"] == "survived" for r in rows)
        assert out_svg.read_text().startswith("<svg")

    def test_fixed_r_reds_per_layer(self, workspace, tmp_path):
        out_csv = tmp_path / "viz.csv"
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "tome", "--r", "2",
                     "--out-csv", str(out_csv)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        by_layer = {}
        for r in rows:
            if r["status"] == "merged":
                by_layer.setdefault(int(r["layer"]), set()).add(int(r["token"]))
        # cumulative red count grows by exactly r per layer
        for layer in range(4):
            assert len(by_layer.get(layer, set())) == 2 * (layer + 1)

    # SHA-256 of image 0's merge map (CSV, SVG), taken while the runtime
    # still tracked original-token ids; the replay of the recorded edges
    # must give the same files
    PINNED = {
        ("tome", "--r", "2"): (
            "0c0f03dd39e9679f40c760e95e7f1d7729f31610b50a8ac607c78a2d87e14c5a",
            "a6905472a83fbda4bc70de2614977798017d0b2620bcc42b34a1cc420b82aed9"),
        ("adamerge", "--r-max", "6"): (
            "b2fe89dbcd18627960ca5596b0b063d3be9fef79310f7356b6986fa9c5d3184b",
            "74873a2dd6c49ae404792209ba605154f1c628074bef483fb8f3a3ca826954ce"),
    }

    @pytest.mark.parametrize("method,flag,value", list(PINNED),
                             ids=["tome", "adamerge"])
    def test_merge_map_bytes_are_pinned(self, workspace, tmp_path, method,
                                        flag, value):
        out_csv, out_svg = tmp_path / "viz.csv", tmp_path / "viz.svg"
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", method, flag, value,
                     "--stats", workspace["stats"], "--out-csv", str(out_csv),
                     "--out-svg", str(out_svg)]) == 0
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out_csv, out_svg))
        assert got == self.PINNED[method, flag, value]

    def test_out_of_range_index(self, workspace):
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "none",
                     "--image-index", "99"]) == 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["run"]) == 1
        assert main(["bogus-command"]) == 1

    def test_data_error_is_two(self, tmp_path):
        assert main(["run", "--weights", str(tmp_path / "nope"),
                     "--dataset", str(tmp_path / "nope2"),
                     "--method", "none"]) == 2

    def test_stats_from_another_model_is_data_error(self, workspace, tmp_path,
                                                    capsys):
        other = str(tmp_path / "other")
        assert main(["synth-weights", "--dim", "16", "--heads", "2", "--d-ff",
                     "32", "--layers", "4", "--classes", "5", "--seed", "9",
                     "--out", other]) == 0
        base = ["--weights", other, "--dataset", workspace["dataset"],
                "--stats", workspace["stats"]]
        for argv in (["run", *base, "--method", "adamerge", "--r-max", "6"],
                     ["compare", *base, "--config", "adamerge:r_max=6"],
                     ["viz", *base, "--method", "tome", "--r", "2"]):
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "'synth-3'" in err and "'synth-9'" in err, err

    def test_non_finite_token_is_data_error(self, workspace, tmp_path, capsys):
        images, _ = data.load_dataset(workspace["dataset"])
        images = images.copy()
        images[2, 5, 7] = np.nan
        bad = str(tmp_path / "bad")
        data.save_dataset(bad, images)
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     bad, "--method", "tome", "--r", "3"]) == 2
        err = capsys.readouterr().err
        assert "image_00002" in err and "token row 5" in err, err


class TestRejectedSchedules:
    def test_calibrate_none_is_data_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--r-max", "6",
                     "--method", "none", "--out", str(out)]) == 2
        assert "'none'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_r_is_data_error(self, workspace, capsys):
        base = ["--weights", workspace["weights"], "--dataset",
                workspace["dataset"]]
        for argv in (["run", *base, "--method", "tome", "--r", "-3"],
                     ["compare", *base, "--config", "tome:r=-1"],
                     ["viz", *base, "--method", "adamerge", "--r", "-1"]):
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            assert "r=-" in capsys.readouterr().err, argv[0]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["calibrate", "run", "compare"])
    def test_threads_below_one_is_data_error(self, workspace, tmp_path,
                                             capsys, command, threads):
        base = ["--weights", workspace["weights"], "--dataset",
                workspace["dataset"], "--threads", threads]
        argv = {"calibrate": ["--r-max", "6", "--out", str(tmp_path / "s.json")],
                "run": ["--method", "tome", "--r", "3"],
                "compare": ["--config", "tome:r=3"]}[command]
        assert main([command, *base, *argv]) == 2
        assert f"threads={threads}" in capsys.readouterr().err

    def test_merge_count_for_none_is_data_error(self, workspace, capsys):
        base = ["--weights", workspace["weights"], "--dataset",
                workspace["dataset"]]
        for argv, given in (
                (["run", *base, "--method", "none", "--r", "5"], "r=5"),
                (["viz", *base, "--method", "none", "--r-max", "6"], "r_max=6"),
                (["compare", *base, "--config", "none:r=3"], "r=3")):
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "takes neither r nor r_max" in err and given in err, err

    @pytest.mark.parametrize("flag,value", [("alpha", "nan"),
                                            ("temperature", "inf")])
    @pytest.mark.parametrize("command", ["calibrate", "run"])
    def test_non_finite_schedule_value_is_data_error(self, workspace, tmp_path,
                                                     capsys, command, flag,
                                                     value):
        out = tmp_path / "s.json"
        argv = {"calibrate": ["--r-max", "6", "--out", str(out)],
                "run": ["--method", "adamerge", "--r-max", "6",
                        "--stats", workspace["stats"]]}[command]
        assert main([command, "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], *argv,
                     f"--{flag}", value]) == 2
        assert f"{flag} must be finite, got {flag}={value}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("temperature", 0, "temperature must be > 0"),
        ("alpha", float("nan"), "alpha must be finite"),
        ("alpha", "x", "alpha must be a real number, got alpha='x'"),
        ("temperature", None, "temperature must be a real number"),
        ("alpha", [1.0], "alpha must be a real number"),
        ("alpha", True, "alpha must be a real number"),
        ("r_max", -3, "r_max must be an integer >= 0"),
        ("r_max", 2.5, "r_max must be an integer >= 0"),
        ("r_max", True, "r_max must be an integer >= 0"),
        ("passes", "two", "passes must be an integer >= 1"),
        ("calibration_size", -1, "calibration_size must be an integer >= 1")])
    def test_bad_schedule_field_in_stats_is_data_error(
            self, workspace, tmp_path, capsys, field, value, message):
        doc = json.loads(open(workspace["stats"]).read())
        doc[field] = value
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge", "--r-max",
                     "6", "--stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err and "warning" not in err, err

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_stats_is_data_error(self, workspace, tmp_path, capsys,
                                            value):
        doc = json.loads(open(workspace["stats"]).read())
        doc["mu"][2] = float(value)
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        assert value in bad.read_text()
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge", "--r-max",
                     "6", "--stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: mu must be finite" in err and "layer 2 has mu=" in err, err

    def test_r_zero_still_runs_the_merge_step(self, workspace):
        weights = load_weights(workspace["weights"])
        images, _ = data.load_dataset(workspace["dataset"])
        [(_, trace)] = run_images(weights, images[:1],
                                  build_run_config("tome", r=0))
        assert trace.merging and trace.total_merges == 0
        assert all(rec.sbar != 0.0 and rec.cls_digest_post != ""
                   for rec in trace.layers)


class TestScheduleMismatch:
    def run_adaptive(self, workspace, *extra):
        return main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--method", "adamerge",
                     "--stats", workspace["stats"], *extra])

    def test_mismatched_r_max_warns(self, workspace, capsys):
        assert self.run_adaptive(workspace, "--r-max", "8",
                                 "--temperature", "0.5") == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "warning: r_max=8 differs from the stats' r_max=6",
            "warning: temperature=0.5 differs from the stats' temperature=1.0"]

    def test_matching_values_are_silent(self, workspace, capsys):
        assert self.run_adaptive(workspace, "--r-max", "6") == 0
        assert capsys.readouterr().err == ""


class TestAliases:
    @pytest.mark.parametrize("alias,base", [("adamerge", "sw-only"),
                                            ("adp-only", "tome")])
    @pytest.mark.parametrize("r", [0, 3])
    def test_fixed_r_alias_is_the_same_run(self, workspace, alias, base, r):
        a = build_run_config(alias, r=r)
        b = build_run_config(base, r=r)
        assert a == b
        weights = load_weights(workspace["weights"])
        images, _ = data.load_dataset(workspace["dataset"])
        for (la, ta), (lb, tb) in zip(run_images(weights, images, a),
                                      run_images(weights, images, b)):
            assert la.tobytes() == lb.tobytes()
            assert [(rec.r, rec.edges, rec.sbar) for rec in ta.layers] == \
                [(rec.r, rec.edges, rec.sbar) for rec in tb.layers]
