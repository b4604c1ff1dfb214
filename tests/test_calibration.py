import json

import numpy as np
import pytest

from adamerge import calibration, data
from adamerge.runtime import ModelDims, RunConfig, run_images, synth_weights
from adamerge.schedule import SIGMA_FLOOR, LayerStats
from committed_digests import committed, sha256

# the bootstrap pass of refine(r_max=6): fixed r = 6 // 2, salience on
BOOTSTRAP = RunConfig(salience=True, schedule=3)


@pytest.fixture(scope="module")
def small_model():
    return synth_weights(3, ModelDims(d=16, heads=2, d_ff=32, layers=4,
                                      n_classes=5))


@pytest.fixture(scope="module")
def cal_images():
    return data.synth_images(6, 20, 16, 0.5, seed=21)


class TestCollectPass:
    def test_shape_and_finiteness(self, small_model, cal_images):
        samples = calibration.collect_pass(small_model, cal_images[:1], BOOTSTRAP)
        assert samples.shape == (4, 1)
        assert np.all(np.isfinite(samples))

    def test_bootstrap_uses_half_budget(self, small_model, cal_images):
        # an odd budget bootstraps at the floor of its half: 7 // 2 = 3
        stats = calibration.refine(small_model, cal_images, r_max=7, passes=1)
        samples = calibration.collect_pass(small_model, cal_images, BOOTSTRAP)
        assert np.array_equal(stats.mu, samples.mean(axis=1))

    def test_identical_images_identical_samples(self, small_model, cal_images):
        img = cal_images[0]
        samples = calibration.collect_pass(small_model, [img, img], BOOTSTRAP)
        assert np.array_equal(samples[:, 0], samples[:, 1])

    def test_empty_dataset_rejected(self, small_model):
        with pytest.raises(ValueError):
            calibration.collect_pass(small_model, [], BOOTSTRAP)


class TestFitStats:
    def test_two_point(self):
        stats = calibration.fit_stats(np.array([[0.4, 0.6]]), model_id="t",
                                      r_max=4, alpha=1.0, passes=1,
                                      salience=True)
        assert stats.mu[0] == pytest.approx(0.5)
        assert stats.sigma[0] == pytest.approx(0.1)

    def test_constant_samples_floored(self):
        stats = calibration.fit_stats(np.full((2, 5), 0.3), model_id="t",
                                      r_max=4, alpha=1.0, passes=1,
                                      salience=True)
        assert np.all(stats.sigma == SIGMA_FLOOR)

    def test_against_textbook_formula(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0, 1, size=(1, 100))
        stats = calibration.fit_stats(samples, model_id="t", r_max=4,
                                      alpha=1.0, passes=1, salience=True)
        n = samples.shape[1]
        mean = samples.sum() / n
        var = sum((v - mean) ** 2 for v in samples[0]) / n
        assert stats.mu[0] == pytest.approx(mean, abs=1e-9)
        assert stats.sigma[0] == pytest.approx(np.sqrt(var), abs=1e-9)


class TestRefine:
    def test_single_pass_is_bootstrap_fit(self, small_model, cal_images):
        stats = calibration.refine(small_model, cal_images, r_max=6, passes=1)
        samples = calibration.collect_pass(small_model, cal_images, BOOTSTRAP)
        want = calibration.fit_stats(samples, model_id=small_model.model_id,
                                     r_max=6, alpha=1.0, passes=1,
                                     salience=True)
        assert np.array_equal(stats.mu, want.mu)
        assert np.array_equal(stats.sigma, want.sigma)

    def test_two_pass_deterministic_bytes(self, small_model, cal_images,
                                          tmp_path):
        paths = []
        for k in range(2):
            stats = calibration.refine(small_model, cal_images, r_max=6,
                                       passes=2)
            p = tmp_path / f"stats{k}.json"
            calibration.save_stats(stats, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_weak_contraction(self):
        model = synth_weights(3, ModelDims(d=16, heads=2, d_ff=32, layers=8,
                                           n_classes=5))
        images = data.synth_images(24, 32, 16, 0.6, seed=33)
        runs = [calibration.refine(model, images, r_max=8, passes=p)
                for p in (1, 2, 3)]
        d12 = np.abs(runs[0].mu - runs[1].mu)
        d23 = np.abs(runs[1].mu - runs[2].mu)
        assert np.sum(d23 <= d12) > len(d12) / 2

    def test_passes_must_be_positive(self, small_model, cal_images):
        with pytest.raises(ValueError):
            calibration.refine(small_model, cal_images, r_max=6, passes=0)

    # stats.json bytes of refine(r_max=6, passes=2) at each salience
    # setting, against the `calibrate` lines of the same model and images
    @pytest.mark.parametrize("salience,method", [(True, "adamerge"),
                                                 (False, "tome")],
                             ids=["on", "off"])
    def test_two_pass_bytes_are_pinned(self, small_model, cal_images,
                                       tmp_path, salience, method):
        p = tmp_path / "stats.json"
        calibration.save_stats(
            calibration.refine(small_model, cal_images, r_max=6, passes=2,
                               salience=salience), p)
        assert sha256(p.read_bytes()) == \
            committed(f"calibrate:{method} on 6x20x16 stats.json")

    @pytest.mark.parametrize("field,value", [("alpha", np.nan)])
    def test_bad_schedule_value_fails_before_any_pass(self, small_model,
                                                      field, value):
        # an empty dataset would fail in the bootstrap pass
        with pytest.raises(ValueError, match=f"{field}="):
            calibration.refine(small_model, [], r_max=6, **{field: value})


class TestPersistence:
    def make_stats(self):
        return LayerStats(model_id="m", mu=np.linspace(0.2, 0.5, 12),
                          sigma=np.full(12, 0.05), r_max=9, alpha=1.0,
                          passes=2, calibration_size=64)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "stats.json"
        stats = self.make_stats()
        calibration.save_stats(stats, p)
        back = calibration.load_stats(p)
        assert np.array_equal(back.mu, stats.mu)
        assert np.array_equal(back.sigma, stats.sigma)
        assert back.model_id == stats.model_id
        assert back.calibration_size == 64
        # save of the loaded stats is byte-identical
        p2 = tmp_path / "stats2.json"
        calibration.save_stats(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_saved_bytes_are_pinned(self, tmp_path):
        # the field list comes from LayerStats; the bytes must not move
        p = tmp_path / "stats.json"
        calibration.save_stats(self.make_stats(), p)
        assert sha256(p.read_bytes()) == committed("save_stats stats.json")

    def test_golden_fixture(self, tmp_path):
        doc = {"version": 3, "model_id": "vit-b16-test", "num_layers": 12,
               "r_max": 23, "alpha": 0.5, "passes": 2,
               "calibration_size": 128, "salience": False,
               "mu": [0.1 * (i + 1) for i in range(12)],
               "sigma": [0.01] * 12}
        p = tmp_path / "golden.json"
        p.write_text(json.dumps(doc))
        stats = calibration.load_stats(p)
        assert stats.num_layers == 12
        assert stats.model_id == "vit-b16-test"
        assert stats.alpha == 0.5
        assert stats.salience is False

    def _corrupt(self, tmp_path, **patch):
        doc = {"version": 3, "model_id": "m", "num_layers": 2, "r_max": 4,
               "alpha": 1.0, "passes": 2,
               "calibration_size": 8, "salience": True, "mu": [0.1, 0.2],
               "sigma": [0.1, 0.1]}
        doc.update(patch)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        return p

    def test_zero_sigma_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sigma"):
            calibration.load_stats(self._corrupt(tmp_path, sigma=[0.1, 0.0]))

    def test_wrong_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="num_layers"):
            calibration.load_stats(self._corrupt(tmp_path, mu=[0.1]))

    def test_unknown_field_rejected_with_version(self, tmp_path):
        with pytest.raises(ValueError, match="version"):
            calibration.load_stats(self._corrupt(tmp_path, extra=1))

    def test_version_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="version"):
            calibration.load_stats(self._corrupt(tmp_path, version=99))

    # True == 1 and 1.0 == 1: a one-layer file loaded with either before
    @pytest.mark.parametrize("n", [True, 1.0, "1", None],
                             ids=["true", "1.0", "str-1", "null"])
    def test_num_layers_must_be_an_integer(self, tmp_path, n):
        p = self._corrupt(tmp_path, num_layers=n, mu=[0.1], sigma=[0.1])
        with pytest.raises(ValueError) as err:
            calibration.load_stats(p)
        assert str(err.value) == \
            f"{p}: num_layers must be an integer, got num_layers={n!r}"

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, tmp_path, field, value):
        p = self._corrupt(tmp_path, **{field: [0.1, value]})
        with pytest.raises(ValueError) as err:
            calibration.load_stats(p)
        assert str(p) in str(err.value) and f"layer 1 has {field}=" in str(err.value)

    def test_missing_field_rejected(self, tmp_path):
        doc = json.loads(self._corrupt(tmp_path).read_text())
        del doc["passes"]
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"missing fields \['passes'\]"):
            calibration.load_stats(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            calibration.load_stats(p)


class TestOnePath:
    @pytest.mark.parametrize("salience", [True, False], ids=["adamerge", "tome"])
    def test_samples_are_run_images_sbar(self, small_model, cal_images, salience):
        stats = calibration.refine(small_model, cal_images, r_max=6, passes=1,
                                   salience=salience)
        assert stats.salience is salience
        for cfg in (RunConfig(salience=salience, schedule=3),
                    RunConfig(salience=salience, schedule=stats)):
            samples = calibration.collect_pass(small_model, cal_images, cfg)
            want = [[rec.sbar for rec in tr.layers]
                    for _, tr in run_images(small_model, cal_images, cfg)]
            assert samples.tobytes() == np.asarray(want).T.tobytes()
