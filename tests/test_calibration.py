import json

import numpy as np
import pytest

from adamerge import calibration, data
from adamerge.runtime import ModelDims, run_images, synth_weights
from adamerge.schedule import SIGMA_FLOOR, LayerStats


@pytest.fixture(scope="module")
def small_model():
    return synth_weights(3, ModelDims(d=16, heads=2, d_ff=32, layers=4,
                                      n_classes=5))


@pytest.fixture(scope="module")
def cal_images():
    return data.synth_images(6, 20, 16, 0.5, seed=21)


class TestCollectPass:
    def test_shape_and_finiteness(self, small_model, cal_images):
        samples = calibration.collect_pass(small_model, cal_images[:1], r_max=6)
        assert samples.shape == (4, 1)
        assert np.all(np.isfinite(samples))

    def test_bootstrap_uses_half_budget(self, small_model, cal_images):
        cfg = calibration._run_config(6, 1.0, 1.0, "adamerge", None)
        assert cfg.schedule == 3

    def test_identical_images_identical_samples(self, small_model, cal_images):
        img = cal_images[0]
        samples = calibration.collect_pass(small_model, [img, img], r_max=6)
        assert np.array_equal(samples[:, 0], samples[:, 1])

    def test_empty_dataset_rejected(self, small_model):
        with pytest.raises(ValueError):
            calibration.collect_pass(small_model, [], r_max=6)

    def test_threaded_matches_serial(self, small_model, cal_images):
        a = calibration.collect_pass(small_model, cal_images, r_max=6)
        b = calibration.collect_pass(small_model, cal_images, r_max=6,
                                     threads=4)
        assert np.array_equal(a, b)


class TestFitStats:
    def test_two_point(self):
        stats = calibration.fit_stats(np.array([[0.4, 0.6]]), model_id="t",
                                      r_max=4, alpha=1.0, temperature=1.0,
                                      passes=1)
        assert stats.mu[0] == pytest.approx(0.5)
        assert stats.sigma[0] == pytest.approx(0.1)

    def test_constant_samples_floored(self):
        stats = calibration.fit_stats(np.full((2, 5), 0.3), model_id="t",
                                      r_max=4, alpha=1.0, temperature=1.0,
                                      passes=1)
        assert np.all(stats.sigma == SIGMA_FLOOR)

    def test_against_textbook_formula(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(0, 1, size=(1, 100))
        stats = calibration.fit_stats(samples, model_id="t", r_max=4,
                                      alpha=1.0, temperature=1.0, passes=1)
        n = samples.shape[1]
        mean = samples.sum() / n
        var = sum((v - mean) ** 2 for v in samples[0]) / n
        assert stats.mu[0] == pytest.approx(mean, abs=1e-9)
        assert stats.sigma[0] == pytest.approx(np.sqrt(var), abs=1e-9)


class TestRefine:
    def test_single_pass_is_bootstrap_fit(self, small_model, cal_images):
        stats = calibration.refine(small_model, cal_images, r_max=6, passes=1)
        samples = calibration.collect_pass(small_model, cal_images, r_max=6)
        want = calibration.fit_stats(samples, model_id=small_model.model_id,
                                     r_max=6, alpha=1.0, temperature=1.0,
                                     passes=1)
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


class TestPersistence:
    def make_stats(self):
        return LayerStats(model_id="m", mu=np.linspace(0.2, 0.5, 12),
                          sigma=np.full(12, 0.05), r_max=9, alpha=1.0,
                          temperature=1.0, passes=2, calibration_size=64)

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

    def test_golden_fixture(self, tmp_path):
        doc = {"version": 1, "model_id": "vit-b16-test", "num_layers": 12,
               "r_max": 23, "alpha": 1.0, "temperature": 0.5, "passes": 2,
               "calibration_size": 128,
               "mu": [0.1 * (i + 1) for i in range(12)],
               "sigma": [0.01] * 12}
        p = tmp_path / "golden.json"
        p.write_text(json.dumps(doc))
        stats = calibration.load_stats(p)
        assert stats.num_layers == 12
        assert stats.model_id == "vit-b16-test"
        assert stats.temperature == 0.5

    def _corrupt(self, tmp_path, **patch):
        doc = {"version": 1, "model_id": "m", "num_layers": 2, "r_max": 4,
               "alpha": 1.0, "temperature": 1.0, "passes": 2,
               "calibration_size": 8, "mu": [0.1, 0.2], "sigma": [0.1, 0.1]}
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

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            calibration.load_stats(p)


class TestOnePath:
    @pytest.mark.parametrize("method", ["adamerge", "tome"])
    def test_samples_are_run_images_sbar(self, small_model, cal_images, method):
        stats = calibration.refine(small_model, cal_images, r_max=6, passes=1,
                                   method=method)
        for s in (None, stats):
            samples = calibration.collect_pass(small_model, cal_images, r_max=6,
                                               method=method, stats=s)
            cfg = calibration._run_config(6, 1.0, 1.0, method, s)
            want = [[rec.sbar for rec in tr.layers]
                    for _, tr in run_images(small_model, cal_images, cfg)]
            assert samples.tobytes() == np.asarray(want).T.tobytes()
