import csv
import json
import math
import os
import re
import shutil
import time

import numpy as np
import pytest

from adamerge import calibration, data, flops
from adamerge.archive import save_archive
from adamerge.cli import build_run_config, main, method_salience, parse_config_spec
from adamerge.runtime import load_weights, run_images
from committed_digests import committed, sha256


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
                 "--config", "adamerge:r_max=6", "--passes", "2",
                 "--out", stats]) == 0
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

    def test_blob_bytes_are_pinned(self, tmp_path):
        # the blob is the images' float32 bytes in order; a change of the
        # manifest layout alone keeps this digest
        assert main(["synth", "--images", "3", "--tokens", "8", "--dim", "4",
                     "--redundancy", "0.7", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        assert sha256((tmp_path / "tensors.bin").read_bytes()) == \
            committed("synth:3x8x4 tensors.bin")

    @pytest.mark.parametrize("flag,field", [("--tokens", "n_tokens"),
                                            ("--dim", "dim")])
    def test_empty_token_shape_is_data_error(self, tmp_path, capsys, flag,
                                             field):
        sizes = {"--images": "2", "--tokens": "8", "--dim": "4"}
        sizes[flag] = "0"
        out = tmp_path / "data"
        assert main(["synth", *(a for kv in sizes.items() for a in kv),
                     "--out", str(out)]) == 2
        assert f"error: {field} must be >= 1, got {field}=0" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("images", ["0", "-1"])
    def test_image_count_below_one_is_data_error(self, tmp_path, capsys,
                                                 images):
        out = tmp_path / "data"
        assert main(["synth", "--images", images, "--tokens", "8", "--dim",
                     "4", "--out", str(out)]) == 2
        assert f"error: n_images must be >= 1, got n_images={images}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path,
                                                            monkeypatch):
        # a variable that once set the default seed must not move it
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("ADAMERGE_SEED", "77")
        assert main(["synth", "--images", "1", "--tokens", "4", "--dim", "2",
                     "--out", str(a)]) == 0
        assert main(["synth", "--images", "1", "--tokens", "4", "--dim", "2",
                     "--seed", "0", "--out", str(b)]) == 0
        assert (a / "tensors.bin").read_bytes() == \
            (b / "tensors.bin").read_bytes()

    def test_prototype_count_changes_the_images(self, tmp_path):
        blobs = []
        for k in ("1", "4"):
            out = tmp_path / k
            assert main(["synth", "--images", "2", "--tokens", "8", "--dim",
                         "4", "--prototypes", k, "--out", str(out)]) == 0
            blobs.append((out / "tensors.bin").read_bytes())
        assert blobs[0] != blobs[1]

    @pytest.mark.parametrize("k", ["0", "5"])
    def test_prototype_count_out_of_range_is_data_error(self, tmp_path, capsys,
                                                        k):
        out = tmp_path / "data"
        assert main(["synth", "--images", "2", "--tokens", "8", "--dim", "4",
                     "--prototypes", k, "--out", str(out)]) == 2
        assert f"error: k_prototypes must be in [1, 4], got {k}\n" == \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,sizes", [
        ("synth", ["--images", "1", "--tokens", "4", "--dim", "2"]),
        ("synth-weights", ["--dim", "4", "--heads", "1", "--d-ff", "4",
                           "--layers", "1", "--classes", "2"])])
    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, command,
                                         sizes, seed):
        out = tmp_path / "archive"
        assert main([command, *sizes, "--seed", seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: seed must be an integer >= 0, got seed={seed}\n"
        assert not out.exists()


class TestCalibrate:
    def test_stats_schema(self, workspace):
        doc = json.loads(open(workspace["stats"]).read())
        assert doc["version"] == 3
        assert "temperature" not in doc  # alpha is the one gain
        assert doc["salience"] is True  # calibrated for adamerge
        assert doc["num_layers"] == 4
        assert len(doc["mu"]) == 4 and len(doc["sigma"]) == 4
        assert all(s > 0 for s in doc["sigma"])

    def test_schedule_values_are_stored(self, workspace, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "adamerge:r_max=5",
                     "--alpha", "2", "--passes", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # alpha is the one gain
        assert (doc["r_max"], doc["alpha"], doc["passes"]) == (5, 2.0, 1)


class TestRun:
    def test_adaptive_run_csv(self, workspace, tmp_path):
        out_csv = str(tmp_path / "run.csv")
        code = main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--stats", workspace["stats"], "--out-csv", out_csv])
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
                     workspace["dataset"], "--config", "tome:r=200",
                     "--out-csv", str(out_csv)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 8 * 4
        assert all(r["r_clamped"] == "1" for r in rows)
        assert [r["r"] for r in rows[:4]] == ["12", "6", "3", "2"]

    def test_summary_counts_the_merger_flags(self, workspace, capsys):
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r=200"]) == 0
        assert "merger flags over 32 layer decisions: r_clamped=32 " \
            "mean_fallback=0 empty_b=0\n" in capsys.readouterr().out

    def test_summary_flops_are_the_mean_over_images(self, workspace, capsys):
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--stats", workspace["stats"]]) == 0
        out = capsys.readouterr().out
        shown = re.search(r"FLOPs \(mean over images\): ([\d.e+-]+) G "
                          r"\(reduction ([\d.]+)%", out)
        overhead = re.search(r"merge overhead \(mean over images\): "
                             r"([\d.e+-]+) G \(([\d.]+)% of merge-free\)", out)
        assert shown and overhead

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
        assert shown.group(1) == f"{np.mean([r.total for r in reps]) / 1e9:.4g}"
        # the overhead is shown apart from the core FLOPs, never added in
        assert float(overhead.group(1)) > 0
        assert overhead.group(1) == \
            f"{np.mean([r.overhead for r in reps]) / 1e9:.4g}"
        assert overhead.group(2) == \
            f"{np.mean([100 * r.overhead / r.baseline for r in reps]):.1f}"

    def test_rerun_csv_byte_identical(self, workspace, tmp_path):
        outs = []
        for k in range(2):
            p = tmp_path / f"run{k}.csv"
            assert main(["run", "--weights", workspace["weights"],
                         "--dataset", workspace["dataset"], "--config",
                         "tome:r=3", "--out-csv", str(p)]) == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_stats_is_data_error(self, workspace):
        code = main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6"])
        assert code == 2


class TestCompare:
    def test_table_and_outputs(self, workspace, tmp_path):
        out_csv = str(tmp_path / "cmp.csv")
        out_svg = str(tmp_path / "cmp.svg")
        code = main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "tome:r=3",
                     "--config", "adamerge:r_max=6",
                     "--config", "adamerge:r=3",
                     "--config", "adamerge:r_max=4",
                     "--stats", workspace["stats"],
                     "--out-csv", out_csv, "--out-svg", out_svg])
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert [r["config"] for r in rows] == \
            ["tome:r=3", "adamerge:r_max=6", "adamerge:r=3", "adamerge:r_max=4"]
        assert list(rows[0]) == ["config", "method", "flops_g",
                                 "flops_reduction_pct", "overhead_g",
                                 "mean_merges", "accuracy", "wall_time_s"]
        assert all(float(r["overhead_g"]) > 0 for r in rows)
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

    def test_unknown_method_has_the_alias_table_message(self, workspace,
                                                        capsys):
        with pytest.raises(ValueError) as alias_error:
            method_salience("bogus")
        assert main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"],
                     "--config", "bogus:r=3"]) == 2
        assert capsys.readouterr().err == f"error: {alias_error.value}\n"

    @pytest.mark.parametrize("spec, message", [
        ("tome:r=x", "r must be an integer, got 'x'"),
        ("tome:r", "r must be an integer, got ''"),
        ("adamerge:r_max=16,alpha=", "unknown option 'alpha'"),
        ("tome:r=3,r=4", "r given twice"),
    ])
    def test_bad_option_value_names_the_spec_and_key(self, workspace, capsys,
                                                     spec, message):
        assert main(["compare", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--config", spec]) == 2
        assert capsys.readouterr().err == f"error: config {spec!r}: {message}\n"

    def test_parse_config_spec(self):
        method, opts = parse_config_spec("adamerge:r_max=23")
        assert method == "adamerge"
        assert opts == {"r_max": 23}
        # alpha and temperature come from the stats only
        for key in ("alpha", "temperature"):
            with pytest.raises(ValueError, match=f"unknown option '{key}'"):
                parse_config_spec(f"adamerge:r_max=23,{key}=0.5")


class TestViz:
    def test_none_all_survive(self, workspace, tmp_path):
        out_csv = tmp_path / "viz.csv"
        out_svg = tmp_path / "viz.svg"
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "none",
                     "--out-csv", str(out_csv), "--out-svg", str(out_svg)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert all(r["status"] == "survived" for r in rows)
        assert out_svg.read_text().startswith("<svg")

    def test_fixed_r_reds_per_layer(self, workspace, tmp_path):
        out_csv = tmp_path / "viz.csv"
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r=2",
                     "--out-csv", str(out_csv)]) == 0
        rows = list(csv.DictReader(open(out_csv)))
        by_layer = {}
        for r in rows:
            if r["status"] == "merged":
                by_layer.setdefault(int(r["layer"]), set()).add(int(r["token"]))
        # cumulative red count grows by exactly r per layer
        for layer in range(4):
            assert len(by_layer.get(layer, set())) == 2 * (layer + 1)

    # image 0's merge map (CSV, SVG), pinned while the runtime still
    # tracked original-token ids; the replay of the recorded edges must
    # give the same files
    @pytest.mark.parametrize("spec", ["tome:r=2", "adamerge:r_max=6"],
                             ids=["tome", "adamerge"])
    def test_merge_map_bytes_are_pinned(self, workspace, tmp_path, spec):
        out_csv, out_svg = tmp_path / "viz.csv", tmp_path / "viz.svg"
        # only the adaptive run reads stats; a fixed r given them exits 2
        stats = ["--stats", workspace["stats"]] if "r_max" in spec else []
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", spec, *stats,
                     "--out-csv", str(out_csv), "--out-svg", str(out_svg)]) == 0
        assert [sha256(p.read_bytes()) for p in (out_csv, out_svg)] == \
            [committed(f"viz:{spec} image=0 {ext}") for ext in ("csv", "svg")]

    def test_out_of_range_index(self, workspace):
        assert main(["viz", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "none",
                     "--image-index", "99"]) == 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["run"]) == 1
        assert main(["bogus-command"]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "none", "--include-overhead"],
        ["compare", "--config", "none", "--include-overhead"],
        ["compare", "--config", "none", "--alpha", "2"],
        ["compare", "--config", "none", "--temperature", "2"],
        ["run", "--config", "adamerge", "--alpha", "2"],
        ["run", "--config", "adamerge", "--temperature", "2"],
        ["viz", "--config", "adamerge", "--alpha", "2"],
        ["viz", "--config", "adamerge", "--temperature", "2"],
        ["calibrate", "--config", "adamerge:r_max=6", "--temperature", "2"],
        *([command, "--config", "tome:r_max=6", flag, value]
          for command in ("calibrate", "run", "compare", "viz")
          for flag, value in (("--method", "tome"), ("--r", "3"),
                              ("--r-max", "6")))],
        ids=["run-include-overhead", "compare-include-overhead",
             "compare-alpha", "compare-temperature", "run-alpha",
             "run-temperature", "viz-alpha", "viz-temperature",
             "calibrate-temperature",
             *(f"{command}-{flag}" for command in ("calibrate", "run",
                                                   "compare", "viz")
               for flag in ("method", "r", "r-max"))])
    def test_removed_flags_are_usage_errors(self, workspace, tmp_path, capsys,
                                            argv):
        # the overhead is always shown; alpha and temperature come from the
        # stats, and calibrate's --alpha is the schedule's one gain; a
        # --config spec names the method, r and r_max of every command
        command, *rest = argv
        out = tmp_path / "out"
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], *rest,
                     *(["--out", str(out)] if command == "calibrate" else [])]) == 1
        assert "unrecognized arguments: " + " ".join(rest[2:]) in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,argv", [
        ("calibrate", ["--config", "adamerge:r_max=6"]),
        ("run", ["--config", "tome:r=3"]),
        ("compare", ["--config", "tome:r=3"])], ids=["calibrate", "run", "compare"])
    def test_threads_is_a_usage_error(self, workspace, tmp_path, capsys,
                                      command, argv):
        # images run one at a time on one Python thread; BLAS threads the GEMMs
        out = tmp_path / "out"
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], *argv, "--threads", "2",
                     *(["--out", str(out)] if command == "calibrate" else [])]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_is_two(self, tmp_path):
        assert main(["run", "--weights", str(tmp_path / "nope"),
                     "--dataset", str(tmp_path / "nope2"),
                     "--config", "none"]) == 2

    def test_stats_from_another_model_is_data_error(self, workspace, tmp_path,
                                                    capsys):
        other = str(tmp_path / "other")
        assert main(["synth-weights", "--dim", "16", "--heads", "2", "--d-ff",
                     "32", "--layers", "4", "--classes", "5", "--seed", "9",
                     "--out", other]) == 0
        base = ["--weights", other, "--dataset", workspace["dataset"],
                "--stats", workspace["stats"]]
        for argv in (["run", *base, "--config", "adamerge:r_max=6"],
                     ["compare", *base, "--config", "adamerge:r_max=6"],
                     ["viz", *base, "--config", "tome:r=2"]):
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
                     bad, "--config", "tome:r=3"]) == 2
        err = capsys.readouterr().err
        assert "image 2 " in err and "token row 5" in err, err


class TestRejectedSchedules:
    def test_calibrate_none_is_data_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--config", "none",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config 'none': calibrate fits the adaptive schedule of tome "
            "or adamerge, so it takes method:r_max=N, no r\n")
        assert not out.exists()

    def test_calibrate_on_one_token_images_is_data_error(self, workspace,
                                                         tmp_path, capsys):
        # one patch token scores no pair, so every layer read sbar = 0 and
        # the stats saturated every adaptive run at r_max
        dataset, out = str(tmp_path / "data"), tmp_path / "stats.json"
        assert main(["synth", "--images", "2", "--tokens", "1", "--dim", "16",
                     "--out", dataset]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", dataset, "--config", "adamerge:r_max=4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dataset}: calibration image 0 has n=1 patch tokens; "
            "calibration needs n >= 2 to score a pair\n")
        assert not out.exists()

    def test_negative_r_is_data_error(self, workspace, capsys):
        base = ["--weights", workspace["weights"], "--dataset",
                workspace["dataset"]]
        for argv in (["run", *base, "--config", "tome:r=-3"],
                     ["compare", *base, "--config", "tome:r=-1"],
                     ["viz", *base, "--config", "adamerge:r=-1"]):
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            assert "r=-" in capsys.readouterr().err, argv[0]

    def test_merge_count_for_none_is_data_error(self, workspace, capsys):
        base = ["--weights", workspace["weights"], "--dataset",
                workspace["dataset"]]
        for argv, given in (
                (["run", *base, "--config", "none:r=5"], "r=5"),
                (["viz", *base, "--config", "none:r_max=6"], "r_max=6"),
                (["compare", *base, "--config", "none:r=3"], "r=3")):
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "takes neither r nor r_max" in err and given in err, err

    @pytest.mark.parametrize("command,flag,value",
                             [("calibrate", "alpha", "nan")])
    def test_non_finite_schedule_value_is_data_error(self, workspace, tmp_path,
                                                     capsys, command, flag,
                                                     value):
        out = tmp_path / "s.json"
        assert main([command, "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--config",
                     "adamerge:r_max=6", "--out", str(out), f"--{flag}",
                     value]) == 2
        assert f"{flag} must be finite, got {flag}={value}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("alpha", float("nan"), "alpha must be finite"),
        ("alpha", "x", "alpha must be a real number, got alpha='x'"),
        # the id it had when it was the fifth case
        pytest.param("alpha", [1.0], "alpha must be a real number",
                     id="alpha-value4-alpha must be a real number"),
        ("alpha", True, "alpha must be a real number"),
        # ints beyond float64's range are not finite; -2**70 is finite
        pytest.param("alpha", -10**400, "alpha must be finite",
                     id="alpha--10**400"),
        pytest.param("r_max", 10**400, "r_max must be finite",
                     id="r_max-10**400"),
        ("r_max", -3, "r_max must be an integer >= 0"),
        ("r_max", 2.5, "r_max must be an integer >= 0"),
        ("r_max", True, "r_max must be an integer >= 0"),
        ("salience", 1, "salience must be true or false, got salience=1"),
        ("salience", None, "salience must be true or false"),
        ("passes", "two", "passes must be an integer >= 1"),
        ("calibration_size", -1, "calibration_size must be an integer >= 1"),
        # version 3 dropped temperature; alpha is the one gain
        pytest.param("temperature", 1.0,
                     "unknown fields ['temperature'] (stats version 3)",
                     id="temperature-key")])
    def test_bad_schedule_field_in_stats_is_data_error(
            self, workspace, tmp_path, capsys, field, value, message):
        doc = json.loads(open(workspace["stats"]).read())
        doc[field] = value
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--stats", str(bad)]) == 2
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
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--stats", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: mu must be finite" in err and "layer 2 has mu=" in err, err

    @pytest.mark.parametrize("value", [{"a": 1}, [1.0], "x", True, None],
                             ids=["object", "list", "string", "bool", "null"])
    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_stats_element_of_the_wrong_type_is_data_error(
            self, workspace, tmp_path, capsys, field, value):
        doc = json.loads(open(workspace["stats"]).read())
        doc[field][2] = value
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge",
                     "--stats", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: {field} must be a real number at every layer; "
            f"layer 2 has {field}={value!r}\n")

    def test_r_zero_still_runs_the_merge_step(self, workspace):
        weights = load_weights(workspace["weights"])
        images, _ = data.load_dataset(workspace["dataset"])
        [(_, trace)] = run_images(weights, images[:1],
                                  build_run_config("tome", r=0))
        assert trace.merging and trace.total_merges == 0
        assert all(rec.sbar != 0.0 and rec.cls_digest_post != ""
                   for rec in trace.layers)


class TestRejectedLabels:
    # the workspace has 8 images and 5 classes
    @pytest.mark.parametrize("labels,message", [
        ([None, 1] + [0] * 6, "label 0 is None;"),
        ([0, 1.7] + [0] * 6, "label 1 is 1.7;"),
        ([0, 0, True] + [0] * 5, "label 2 is True;"),
        ([0] * 7 + [5], "label 7 is 5; each label must be an integer in [0, 5)"),
        ([0, 0, 0, -1] + [0] * 4, "label 3 is -1;"),
        ("a", "labels must be a list of 8 class indices"),
        ([0, 1], "labels must be a list of 8 class indices")],
        ids=["null", "float", "bool", "n_classes", "negative", "string",
             "length"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bad_labels_are_data_errors(self, workspace, tmp_path, capsys,
                                        command, labels, message):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(labels))
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r=3",
                     "--labels", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err, err


class TestRejectedModelSizes:
    @pytest.mark.parametrize("flag,field", [("--heads", "heads"),
                                            ("--layers", "layers"),
                                            ("--d-ff", "d_ff")])
    def test_zero_size_is_data_error(self, tmp_path, capsys, flag, field):
        sizes = {"--dim": "16", "--heads": "2", "--d-ff": "32", "--layers": "4"}
        sizes[flag] = "0"
        out = tmp_path / "weights"
        assert main(["synth-weights", *(a for kv in sizes.items() for a in kv),
                     "--out", str(out)]) == 2
        assert f"{field} must be an integer >= 1, got {field}=0" in \
            capsys.readouterr().err
        assert not out.exists()


class TestEmptyDataset:
    @pytest.mark.parametrize("command", ["calibrate", "run", "compare", "viz"])
    def test_empty_dataset_is_data_error(self, workspace, tmp_path, capsys,
                                         command):
        empty = str(tmp_path / "empty")
        data.save_dataset(empty, np.zeros((0, 24, 16), np.float32))
        argv = (["--config", "adamerge:r_max=6", "--out", str(tmp_path / "s.json")]
                if command == "calibrate" else ["--config", "tome:r=3"])
        assert main([command, "--weights", workspace["weights"],
                     "--dataset", empty, *argv]) == 2
        assert f"error: {empty}: dataset is empty" in capsys.readouterr().err


class TestUnusableDataset:
    @pytest.mark.parametrize("shape,message", [
        ((3, 0, 16), "images have no patch tokens"),
        ((3, 24, 8), "tokens have dim 8, but the weights at {weights} have d=16")],
        ids=["no-tokens", "dim"])
    @pytest.mark.parametrize("command", ["calibrate", "run", "compare", "viz"])
    def test_dataset_shape_is_data_error(self, workspace, tmp_path, capsys,
                                         command, shape, message):
        bad = str(tmp_path / "bad")
        data.save_dataset(bad, np.ones(shape, np.float32))
        argv = (["--config", "adamerge:r_max=6", "--out", str(tmp_path / "s.json")]
                if command == "calibrate" else ["--config", "tome:r=3"])
        assert main([command, "--weights", workspace["weights"],
                     "--dataset", bad, *argv]) == 2
        message = message.format(weights=workspace["weights"])
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


class TestScheduleMismatch:
    def run_adaptive(self, workspace, spec, *extra):
        return main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", spec,
                     "--stats", workspace["stats"], *extra])

    def test_mismatched_r_max_warns(self, workspace, capsys):
        assert self.run_adaptive(workspace, "adamerge:r_max=8") == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["warning: r_max=8 differs from the stats' r_max=6"]

    def test_matching_values_are_silent(self, workspace, capsys):
        assert self.run_adaptive(workspace, "adamerge:r_max=6") == 0
        assert capsys.readouterr().err == ""

    def test_schedule_defaults_to_the_stats(self, workspace, tmp_path, capsys):
        stats = str(tmp_path / "alpha2.json")
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--config",
                     "adamerge:r_max=6", "--alpha", "2", "--out", stats]) == 0
        csvs = {}
        for label, spec in (("default", "adamerge:r_max=6"),
                            ("no-r-max", "adamerge")):
            out = tmp_path / f"{label}.csv"
            assert main(["run", "--weights", workspace["weights"], "--dataset",
                         workspace["dataset"], "--config", spec,
                         "--stats", stats, "--out-csv", str(out)]) == 0
            assert capsys.readouterr().err == "", label
            csvs[label] = out.read_bytes()
        assert csvs["default"] == csvs["no-r-max"]
        # alpha 2 is not the alpha-1 run of the workspace stats
        out = tmp_path / "alpha1.csv"
        assert self.run_adaptive(workspace, "adamerge", "--out-csv",
                                 str(out)) == 0
        assert out.read_bytes() != csvs["default"]


class TestScheduleFromStats:
    def run_csv(self, workspace, tmp_path, label, **fields):
        """Rows of the adaptive run on the workspace stats with `fields`
        replaced."""
        doc = json.loads(open(workspace["stats"]).read())
        doc.update(fields)
        stats, out = tmp_path / f"{label}.json", tmp_path / f"{label}.csv"
        stats.write_text(json.dumps(doc))
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge", "--stats",
                     str(stats), "--out-csv", str(out)]) == 0
        return list(csv.DictReader(open(out)))

    @pytest.mark.parametrize("field,value", [("alpha", -2**70)],
                             ids=["alpha--2**70"])
    def test_huge_integer_runs_as_its_float_value(self, workspace, tmp_path,
                                                  field, value):
        # a finite float64 value: alpha saturates every r at 0 or r_max
        assert self.run_csv(workspace, tmp_path, "int", **{field: value}) == \
            self.run_csv(workspace, tmp_path, "float", **{field: float(value)})


@pytest.fixture(scope="module")
def tome_stats(workspace):
    """Stats calibrated for tome (salience off) on the workspace."""
    path = str(workspace["root"] / "tome.json")
    assert main(["calibrate", "--weights", workspace["weights"], "--dataset",
                 workspace["dataset"], "--config", "tome:r_max=6",
                 "--passes", "2", "--out", path]) == 0
    return path


def calibrate_command(workspace, method, r_max):
    """The calibrate command that an error about missing stats quotes."""
    return (f"`adamerge calibrate --weights {workspace['weights']} --dataset "
            f"{workspace['dataset']} --config {method}:r_max={r_max} "
            f"--out {method}.json`")


class TestOneSpellingPerRun:
    # a --config spec names every run: the method sets salience, its key r
    # or the --stats sets the schedule
    @pytest.mark.parametrize("command", ["run", "viz", "calibrate"])
    @pytest.mark.parametrize("method", ["sw-only", "adp-only"])
    def test_removed_method_name_is_usage_error(self, workspace, tmp_path,
                                                capsys, command, method):
        # a spec's method is checked by method_salience: exit 2 with the
        # alias table, as on every command
        with pytest.raises(ValueError) as unknown:
            method_salience(method)
        out = tmp_path / "out"
        extra = ([f"{method}:r_max=6", "--out", str(out)]
                 if command == "calibrate" else [f"{method}:r=3"])
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", *extra]) == 2
        assert capsys.readouterr().err == f"error: {unknown.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["sw-only:r=3", "adp-only:r_max=6"])
    def test_removed_method_name_in_a_config_is_unknown(self, workspace, capsys,
                                                        spec):
        with pytest.raises(ValueError) as unknown:
            method_salience(spec.partition(":")[0])
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--stats", workspace["stats"],
                     "--config", spec]) == 2
        assert capsys.readouterr().err == f"error: {unknown.value}\n"

    @pytest.mark.parametrize("command", ["run", "viz", "compare"])
    @pytest.mark.parametrize("method", ["tome", "adamerge"])
    def test_merging_method_needs_r_or_stats(self, workspace, capsys, command,
                                             method):
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", method]) == 2
        assert capsys.readouterr().err == (
            f"error: method {method} needs r for a fixed schedule or --stats "
            "for an adaptive one; run "
            f"{calibrate_command(workspace, method, 'N')} for stats of this "
            "method\n")

    @pytest.mark.parametrize("command", ["run", "viz", "compare"])
    def test_r_and_r_max_together_are_data_error(self, workspace, capsys,
                                                 command):
        # r_max is the budget of an adaptive schedule; r runs a fixed one
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--stats", workspace["stats"],
                     "--config", "adamerge:r=3,r_max=6"]) == 2
        assert capsys.readouterr().err == (
            "error: method adamerge takes r for a fixed schedule or r_max for "
            "an adaptive one, not both (got r=3, r_max=6)\n")

    @pytest.mark.parametrize("command", ["run", "viz", "calibrate"])
    def test_second_config_is_data_error_naming_both(self, workspace, tmp_path,
                                                     capsys, command):
        # these commands run one config; compare runs each one given
        out = tmp_path / "out"
        outputs = {"calibrate": ["--out", str(out)],
                   "run": ["--out-csv", str(out)],
                   "viz": ["--out-csv", str(out), "--out-svg", str(out)]}
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r_max=6",
                     "--config", "adamerge:r_max=6", *outputs[command]]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {command} takes one --config, got 'tome:r_max=6' and "
            "'adamerge:r_max=6'\n"))
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["tome", "adamerge:r=3",
                                      "tome:r=3,r_max=6"])
    def test_calibrate_takes_r_max_and_no_r(self, workspace, tmp_path, capsys,
                                            spec):
        # r_max is the budget of the schedule calibrate fits; r fixes one
        out = tmp_path / "stats.json"
        assert main(["calibrate", "--weights", workspace["weights"],
                     "--dataset", workspace["dataset"], "--config", spec,
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: config {spec!r}: calibrate fits the adaptive schedule of "
            "tome or adamerge, so it takes method:r_max=N, no r\n"))
        assert not out.exists()


class TestSalienceOfStats:
    def test_calibrate_records_the_method_salience(self, workspace, tome_stats):
        docs = [json.loads(open(p).read()) for p in (workspace["stats"], tome_stats)]
        assert [doc["salience"] for doc in docs] == [True, False]

    # the CSV of an adaptive run with salience off on this workspace, as
    # written before the method names were reduced to salience settings
    # (then spelled `calibrate --method adp-only` and `run --method
    # adp-only --stats`)
    def test_tome_on_tome_stats_keeps_its_bytes(self, workspace, tome_stats,
                                                tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome", "--stats",
                     tome_stats, "--out-csv", str(out)]) == 0
        assert sha256(out.read_bytes()) == committed("run:tome tome-stats csv")

    @pytest.mark.parametrize("command", ["run", "viz", "compare"])
    @pytest.mark.parametrize("method,calibrated_with", [("tome", True),
                                                        ("adamerge", False)])
    def test_mismatch_is_data_error_naming_the_file(
            self, workspace, tome_stats, capsys, command, method,
            calibrated_with):
        stats = workspace["stats"] if calibrated_with else tome_stats
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", method,
                     "--stats", stats]) == 2
        # the hint takes r_max from the stats given
        assert capsys.readouterr().err == (
            f"error: {stats}: stats were calibrated with "
            f"salience={calibrated_with}, but the run has "
            f"salience={not calibrated_with} (method {method}); run "
            f"{calibrate_command(workspace, method, 6)} for stats of this "
            "method\n")

    @staticmethod
    def compare_rows(workspace, tmp_path, configs, stats):
        """`compare` CSV rows of `configs` on the `stats` files, wall time
        left out."""
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"],
                     *(a for c in configs for a in ("--config", c)),
                     *(a for path in stats for a in ("--stats", path)),
                     "--out-csv", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        for row in rows:
            del row["wall_time_s"]
        return rows

    def test_compare_runs_each_config_on_the_stats_of_its_salience(
            self, workspace, tome_stats, tmp_path):
        both = self.compare_rows(workspace, tmp_path,
                                 ["tome:r_max=6", "adamerge:r_max=6"],
                                 [tome_stats, workspace["stats"]])
        assert both == (
            self.compare_rows(workspace, tmp_path, ["tome:r_max=6"], [tome_stats])
            + self.compare_rows(workspace, tmp_path, ["adamerge:r_max=6"],
                                [workspace["stats"]]))

    def test_compare_on_two_stats_of_one_salience_names_both(
            self, workspace, tmp_path, capsys):
        copy = str(shutil.copy(workspace["stats"], tmp_path / "copy.json"))
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--stats", workspace["stats"], "--stats", copy]) == 2
        assert capsys.readouterr().err == (
            f"error: {workspace['stats']} and {copy} were both calibrated with "
            "salience=True; give one --stats per salience setting\n")

    def test_compare_on_two_stats_of_the_other_salience_names_both(
            self, workspace, tome_stats, tmp_path, capsys):
        # two files of one salience are rejected as they are loaded, before
        # any config is resolved
        copy = str(shutil.copy(tome_stats, tmp_path / "copy.json"))
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r=3",
                     "--config", "adamerge:r_max=6", "--config", "none",
                     "--stats", tome_stats, "--stats", copy]) == 2
        assert capsys.readouterr().err == (
            f"error: {tome_stats} and {copy} were both calibrated with "
            "salience=False; give one --stats per salience setting\n")

    def test_two_stats_of_one_salience_beside_fixed_configs_name_both(
            self, workspace, tmp_path, capsys):
        copy = str(shutil.copy(workspace["stats"], tmp_path / "copy.json"))
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "tome:r=3",
                     "--config", "none", "--stats", workspace["stats"],
                     "--stats", copy]) == 2
        assert capsys.readouterr().err == (
            f"error: {workspace['stats']} and {copy} were both calibrated with "
            "salience=True; give one --stats per salience setting\n")

    @pytest.mark.parametrize("version", [True, 1, 2, 3.0, "3"],
                             ids=["true", "1", "2", "3.0", "str-3"])
    def test_version_must_be_the_integer_3(self, workspace, tmp_path, capsys,
                                           version):
        # 1 is a file written before the stats recorded their salience,
        # 2 one that still held temperature
        doc = json.loads(open(workspace["stats"]).read())
        doc["version"] = version
        bad = tmp_path / "stats.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge", "--stats",
                     str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: unsupported stats version {version!r} (this build "
            "reads version 3; re-run `adamerge calibrate`)\n")


class TestUnreadStats:
    # stats that no run reads would leave the schedule they hold unapplied
    # with exit 0; the model, salience and r/r_max checks come first
    FIXED = ("no run reads these stats, since a fixed r and method none read "
             "none; leave this --stats out\n")

    @pytest.mark.parametrize("command", ["run", "viz"])
    @pytest.mark.parametrize("argv", [
        ["--config", "tome:r=2"], ["--config", "adamerge:r=0"],
        ["--config", "none"]], ids=["tome-r", "adamerge-r", "none"])
    def test_run_and_viz_name_the_unread_file(self, workspace, tmp_path, capsys,
                                              command, argv):
        out = tmp_path / "out.csv"
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], *argv, "--stats", workspace["stats"],
                     "--out-csv", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {workspace['stats']}: {self.FIXED}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "viz"])
    def test_run_and_viz_name_a_second_file(self, workspace, tome_stats,
                                            capsys, command):
        # a second --stats used to replace the first without a word
        assert main([command, "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge", "--stats",
                     tome_stats, "--stats", workspace["stats"]]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {tome_stats}: no run reads these stats, since no adaptive "
            "run has their salience=False; leave this --stats out\n"))

    def test_compare_of_fixed_configs_names_the_file(self, workspace, tmp_path,
                                                     capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "none", "--config",
                     "tome:r=3", "--config", "adamerge:r=2",
                     "--stats", workspace["stats"], "--out-csv", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {workspace['stats']}: {self.FIXED}")
        assert not out.exists()

    @pytest.mark.parametrize("order", ["unread-last", "unread-first"])
    def test_compare_names_the_unread_second_file(self, workspace, tome_stats,
                                                  tmp_path, capsys, order):
        files = [workspace["stats"], tome_stats]
        if order == "unread-first":
            files.reverse()
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--weights", workspace["weights"], "--dataset",
                     workspace["dataset"], "--config", "adamerge:r_max=6",
                     "--config", "tome:r=3",
                     *(a for path in files for a in ("--stats", path)),
                     "--out-csv", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {tome_stats}: no run reads these stats, since no adaptive "
            "run has their salience=False; leave this --stats out\n"))
        assert not out.exists()


class TestRejectedArchives:
    @pytest.mark.parametrize("which", ["weights", "dataset"])
    def test_meta_not_an_object_is_data_error(self, workspace, tmp_path, capsys,
                                              which):
        paths = {k: workspace[k] for k in ("weights", "dataset")}
        paths[which] = str(shutil.copytree(workspace[which], tmp_path / which))
        man = tmp_path / which / "manifest.json"
        man.write_text(json.dumps({**json.loads(man.read_text()), "meta": [1]}))
        assert main(["run", "--weights", paths["weights"], "--dataset",
                     paths["dataset"], "--config", "none"]) == 2
        assert capsys.readouterr().err == (
            f"error: archive at {paths[which]}: meta must be a JSON object, "
            "got [1]\n")

    @pytest.mark.parametrize("which", ["weights", "dataset"])
    def test_error_names_the_bad_archive(self, workspace, tmp_path, capsys,
                                         which):
        paths = {k: workspace[k] for k in ("weights", "dataset")}
        paths[which] = str(shutil.copytree(workspace[which], tmp_path / which))
        man = tmp_path / which / "manifest.json"
        doc = json.loads(man.read_text())
        name = doc["tensors"][0][0]
        doc["tensors"][0][1] = [-1]
        man.write_text(json.dumps(doc))
        assert main(["run", "--weights", paths["weights"], "--dataset",
                     paths["dataset"], "--config", "none"]) == 2
        assert capsys.readouterr().err == (
            f"error: archive at {paths[which]}: tensor {name}: malformed "
            "shape [-1]\n")

    @pytest.mark.parametrize("argv", [
        ["--config", "adamerge"], ["--config", "tome:r=3"],
        ["--config", "none"]], ids=["adamerge-adaptive", "tome", "none"])
    def test_nan_weight_names_the_tensor(self, workspace, tmp_path, capsys,
                                         argv):
        # a NaN over element 5 of block00.w_fc1, the 9th tensor: the
        # adaptive run used to fail converting a NaN z to an int, and the
        # fixed ones exited 0 with NaN logits
        bad = str(shutil.copytree(workspace["weights"], tmp_path / "weights"))
        at = 8 + 4 * (5 + sum(math.prod(shape) for _, shape in json.loads(
            (tmp_path / "weights" / "manifest.json").read_text())["tensors"][:8]))
        with open(tmp_path / "weights" / "tensors.bin", "r+b") as f:
            f.seek(at)
            f.write(np.float32(np.nan).tobytes())
        stats = ["--stats", workspace["stats"]] if argv == ["--config", "adamerge"] else []
        assert main(["run", "--weights", bad, "--dataset", workspace["dataset"],
                     *argv, *stats]) == 2
        assert capsys.readouterr().err == (
            f"error: archive at {bad}: tensor block00.w_fc1 holds nan at "
            "index (0, 5)\n")

    @pytest.mark.parametrize("layers", [10**6, 2**70, 10**400],
                             ids=["10**6", "2**70", "10**400"])
    def test_meta_claiming_more_layers_fails_at_once(self, workspace, tmp_path,
                                                     capsys, layers):
        # the 52 tensors of 4 layers are counted against 12 * layers + 4
        # before any tensor name of the claimed model is listed
        bad = str(shutil.copytree(workspace["weights"], tmp_path / "weights"))
        man = tmp_path / "weights" / "manifest.json"
        doc = json.loads(man.read_text())
        doc["meta"]["layers"] = layers
        man.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["run", "--weights", bad, "--dataset", workspace["dataset"],
                     "--config", "none"]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"error: archive at {bad}: missing tensor block04.ln1_gamma; the "
            f"meta describes a {layers}-layer model of {12 * layers + 4} "
            "tensors, the manifest holds 52\n")

    @staticmethod
    def run_with_bad_json(workspace, tmp_path, kind, content):
        """`run` with the `kind` JSON input holding `content`; returns the
        exit code and how the error should name that input."""
        paths = {k: workspace[k] for k in ("weights", "dataset", "stats")}
        paths["labels"] = str(tmp_path / "labels.json")
        (tmp_path / "labels.json").write_text(json.dumps([0] * 8))
        if kind == "manifest":
            paths["dataset"] = str(shutil.copytree(workspace["dataset"],
                                                   tmp_path / "data"))
            bad = tmp_path / "data" / "manifest.json"
        else:
            bad = tmp_path / f"{kind}.json"
            paths[kind] = str(bad)
        bad.write_bytes(content)
        code = main(["run", "--weights", paths["weights"], "--dataset",
                     paths["dataset"], "--config", "adamerge", "--stats",
                     paths["stats"], "--labels", paths["labels"]])
        return code, (f"archive at {paths['dataset']}: manifest.json"
                      if kind == "manifest" else str(bad))

    @pytest.mark.parametrize("kind", ["manifest", "stats", "labels"])
    def test_malformed_json_names_its_file(self, workspace, tmp_path, capsys,
                                           kind):
        code, where = self.run_with_bad_json(workspace, tmp_path, kind,
                                             b"{\n'x': 1}")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {where}: not valid JSON: Expecting property name enclosed "
            "in double quotes: line 2 column 1 (char 2)\n")

    @pytest.mark.parametrize("kind", ["manifest", "stats", "labels"])
    def test_non_utf8_json_names_its_file(self, workspace, tmp_path, capsys,
                                          kind):
        code, where = self.run_with_bad_json(workspace, tmp_path, kind,
                                             b"\xff{}")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {where}: not valid JSON: 'utf-8' codec can't decode byte "
            "0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("tensors", [
        lambda imgs: {f"image_{i:05d}": img for i, img in enumerate(imgs)},
        lambda imgs: {"images": imgs, "labels": np.zeros(len(imgs), np.float32)},
        lambda imgs: {"images": imgs[0]},
    ], ids=["per-image-layout", "extra-tensor", "2d-images"])
    def test_dataset_layout_is_data_error(self, workspace, tmp_path, capsys,
                                          tensors):
        images, meta = data.load_dataset(workspace["dataset"])
        bad = str(tmp_path / "bad")
        save_archive(bad, tensors(images), meta)
        assert main(["run", "--weights", workspace["weights"], "--dataset",
                     bad, "--config", "none"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: archive at {bad}: a token dataset holds "
                              "one 3-D tensor 'images', found "), err
        assert err.endswith("re-run `adamerge synth` to rewrite it\n"), err
