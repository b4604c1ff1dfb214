import hashlib

import numpy as np
import pytest

import naive_reference as ref
from adamerge import calibration, data
from adamerge.archive import ArchiveError
from adamerge.cli import method_knobs
from adamerge.runtime import (BlockWeights, ModelDims, RunConfig,
                              TokenSequence, forward_block, forward_model,
                              load_weights, save_weights, synth_weights)
from adamerge.schedule import LayerStats, ScheduleConfig


def zero_block(d, d_ff):
    z = np.zeros
    f = np.float32
    return BlockWeights(
        ln1_gamma=np.ones(d, f), ln1_beta=z(d, dtype=f),
        w_qkv=z((d, 3 * d), dtype=f), b_qkv=z(3 * d, dtype=f),
        w_proj=z((d, d), dtype=f), b_proj=z(d, dtype=f),
        ln2_gamma=np.ones(d, f), ln2_beta=z(d, dtype=f),
        w_fc1=z((d, d_ff), dtype=f), b_fc1=z(d_ff, dtype=f),
        w_fc2=z((d_ff, d), dtype=f), b_fc2=z(d, dtype=f))


def fixed_cfg(method, r):
    salience, kind = method_knobs(method)
    return RunConfig(salience=salience, schedule=None if kind is None else r)


class TestForwardBlock:
    def test_zero_weights_passthrough(self):
        dims = ModelDims(d=8, heads=2, d_ff=16, n_classes=3, layers=1)
        x = np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32)
        out = forward_block(x, zero_block(8, 16), dims)
        assert np.array_equal(out, x)

    def test_single_token_finite(self):
        dims = ModelDims(d=8, heads=2, d_ff=16, n_classes=3, layers=1)
        w = synth_weights(1, dims)
        x = np.random.default_rng(1).normal(size=(1, 8)).astype(np.float32)
        out = forward_block(x, w.blocks[0], dims)
        assert out.shape == (1, 8) and np.all(np.isfinite(out))

    def test_matches_naive_reference(self):
        dims = ModelDims(d=8, heads=2, d_ff=16, n_classes=3, layers=1)
        w = synth_weights(7, dims)
        x = np.random.default_rng(2).normal(size=(6, 8)).astype(np.float32)
        got = forward_block(x, w.blocks[0], dims)
        want = ref.ref_block(x, w.blocks[0], dims.heads)
        assert np.allclose(got, want, atol=1e-5)

    def test_shape_mismatch(self):
        dims = ModelDims(d=8, heads=2, d_ff=16, n_classes=3, layers=1)
        w = synth_weights(1, dims)
        with pytest.raises(ValueError):
            forward_block(np.zeros((3, 4), np.float32), w.blocks[0], dims)


@pytest.fixture(scope="module")
def model():
    return synth_weights(11, ModelDims(d=16, heads=2, d_ff=32, layers=4,
                                       n_classes=6))


@pytest.fixture(scope="module")
def image():
    return data.synth_images(1, 24, 16, 0.5, seed=5)[0]


def make_seq(image, d=16):
    return TokenSequence(cls=np.zeros(d, dtype=np.float32),
                        patches=np.asarray(image, dtype=np.float32))


def flat_stats(model):
    return LayerStats(model_id=model.model_id, mu=np.zeros(4),
                      sigma=np.full(4, 0.1), r_max=6, alpha=1.0,
                      temperature=1.0, passes=1, calibration_size=1)


class TestForwardModel:
    def test_none_keeps_length_and_matches_vanilla(self, model, image):
        logits, trace = forward_model(make_seq(image), model,
                                      fixed_cfg("none", 0))
        assert all(rec.n_before == 24 and rec.r == 0 for rec in trace.layers)
        # vanilla reference forward
        want, _ = ref.ref_tome_forward(np.zeros(16, np.float32), image,
                                       model, r=0)
        assert np.allclose(logits, want, atol=1e-5)

    def test_tome_fixed_r_arithmetic(self):
        dims = ModelDims(d=16, heads=2, d_ff=32, layers=12, n_classes=4)
        w = synth_weights(2, dims)
        img = data.synth_images(1, 196, 16, 0.3, seed=6)[0]
        _, trace = forward_model(make_seq(img), w, fixed_cfg("tome", 8))
        assert trace.total_merges == 96
        assert trace.layers[-1].n_after == 100

    def test_sequence_length_ledger(self, model, image):
        _, trace = forward_model(make_seq(image), model, fixed_cfg("tome", 3))
        for prev, cur in zip(trace.layers, trace.layers[1:]):
            assert cur.n_before == prev.n_before - prev.r
            assert prev.n_after == prev.n_before - prev.r

    # mu far below any sbar puts z near 10, so r_from_z gives ~r_max
    @pytest.mark.parametrize("big,small,r_small", [
        (200, 3, 3),
        (ScheduleConfig(r_max=200), ScheduleConfig(r_max=6), 5)],
        ids=["fixed", "adaptive"])
    def test_r_above_a_is_clamped_and_flagged(self, model, image, big, small,
                                              r_small):
        stats = LayerStats(model_id=model.model_id, mu=np.full(4, -10.0),
                           sigma=np.ones(4), r_max=200, alpha=1.0,
                           temperature=1.0, passes=1, calibration_size=1)
        _, trace = forward_model(make_seq(image), model,
                                 RunConfig(salience=False, schedule=big,
                                           stats=stats))
        first = trace.layers[0]
        assert first.r == (first.n_before + 1) // 2 == 12 and first.r_clamped
        _, trace = forward_model(make_seq(image), model,
                                 RunConfig(salience=False, schedule=small,
                                           stats=stats))
        assert trace.layers[0].r == r_small and not trace.layers[0].r_clamped

    @pytest.mark.parametrize("schedule", [None, 3, ScheduleConfig(r_max=6)],
                             ids=["none", "fixed", "adaptive"])
    def test_input_sequence_left_as_given(self, model, image, schedule):
        stats = flat_stats(model)
        seq = make_seq(image)
        arrays = (seq.cls, seq.patches, seq.sizes)
        before = [a.tobytes() for a in arrays]
        _, trace = forward_model(seq, model, RunConfig(schedule=schedule,
                                                       stats=stats))
        if schedule is not None:
            assert trace.total_merges > 0
        assert all(got is want for got, want in
                   zip((seq.cls, seq.patches, seq.sizes), arrays))
        assert [a.tobytes() for a in arrays] == before

    def test_cls_untouched_by_merge(self, model, image):
        _, trace = forward_model(make_seq(image), model,
                                 fixed_cfg("adamerge", 4))
        for rec in trace.layers:
            assert rec.cls_digest_pre == rec.cls_digest_post != ""

    def test_salience_conservation_per_layer(self, model, image):
        for cfg in (fixed_cfg("adamerge", 4), fixed_cfg("tome", 4),
                    RunConfig(salience=False, schedule=4, track_maps=True)):
            _, trace = forward_model(make_seq(image), model, cfg)
            for rec in trace.layers:
                # a sum exactly where the run computes salience
                assert (rec.raw_salience_sum is not None) == \
                    (cfg.salience or cfg.track_maps)
                if rec.raw_salience_sum is not None:
                    assert abs(rec.raw_salience_sum - rec.n_before) <= \
                        1e-5 * rec.n_before

    def test_adaptive_requires_stats(self, model, image):
        cfg = RunConfig(salience=True, schedule=ScheduleConfig(r_max=6))
        with pytest.raises(ValueError, match="calibration"):
            forward_model(make_seq(image), model, cfg)

    def test_negative_fixed_r_rejected(self):
        with pytest.raises(ValueError, match="r=-1"):
            RunConfig(salience=False, schedule=-1)
        assert RunConfig(salience=False, schedule=0).schedule == 0

    def test_adaptive_rerun_identical(self, model):
        images = data.synth_images(6, 24, 16, 0.5, seed=7)
        stats = calibration.refine(model, images, r_max=6, passes=2)
        cfg = RunConfig(salience=True, schedule=ScheduleConfig(r_max=6),
                        stats=stats)
        out = []
        for _ in range(2):
            logits, trace = forward_model(make_seq(images[0]), model, cfg)
            out.append((logits.tobytes(), [rec.r for rec in trace.layers]))
        assert out[0] == out[1]

    def test_fixed_mode_matches_tome_lengths(self, model, image):
        _, t1 = forward_model(make_seq(image), model, fixed_cfg("adamerge", 3))
        _, t2 = forward_model(make_seq(image), model, fixed_cfg("tome", 3))
        assert [r.n_before for r in t1.layers] == \
            [r.n_before for r in t2.layers]

    def test_matches_tome_reference_end_to_end(self):
        dims = ModelDims(d=16, heads=2, d_ff=32, layers=4, n_classes=8)
        rng = np.random.default_rng(17)
        for trial in range(5):
            w = synth_weights(100 + trial, dims)
            img = rng.normal(size=(32, 16)).astype(np.float32)
            cls = rng.normal(size=16).astype(np.float32)
            seq = TokenSequence(cls=cls, patches=img)
            logits, trace = forward_model(seq, w, fixed_cfg("tome", 4))
            want_logits, _ = ref.ref_tome_forward(cls, img, w, r=4)
            assert np.allclose(logits, want_logits, atol=1e-5)


class TestSalienceOnlyWhenRead:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Patch-token counts of every salience_of call the runtime makes."""
        import adamerge.runtime as rt
        seen = []
        real = rt.salience_of

        def counted(x):
            seen.append(x.shape[0])
            return real(x)

        monkeypatch.setattr(rt, "salience_of", counted)
        return seen

    @pytest.mark.parametrize("salience,schedule,track_maps,per_layer", [
        (False, None, False, 0),
        (False, 3, False, 0),
        (False, "adaptive", False, 0),
        (True, 3, False, 1),
        (True, "adaptive", False, 1),
        (False, 3, True, 1),
        (False, "adaptive", True, 1)],
        ids=["none", "tome", "adp-only", "sw-only", "adamerge",
             "tome-maps", "adp-only-maps"])
    def test_calls_per_layer(self, model, image, calls, salience, schedule,
                             track_maps, per_layer):
        if schedule == "adaptive":
            schedule = ScheduleConfig(r_max=6)
        cfg = RunConfig(salience=salience, schedule=schedule,
                        stats=flat_stats(model), track_maps=track_maps)
        _, trace = forward_model(make_seq(image), model, cfg)
        assert len(calls) == per_layer * len(trace.layers)
        if per_layer:
            assert calls == [rec.n_before for rec in trace.layers]

    @pytest.mark.parametrize("schedule", [3, ScheduleConfig(r_max=6)],
                             ids=["fixed", "adaptive"])
    def test_maps_leave_a_salience_off_run_unchanged(self, model, schedule):
        def run(img, track_maps):
            return forward_model(make_seq(img), model, RunConfig(
                salience=False, schedule=schedule, stats=flat_stats(model),
                track_maps=track_maps))

        for img in data.synth_images(3, 24, 16, 0.5, seed=12):
            (l0, t0), (l1, t1) = run(img, False), run(img, True)
            assert l0.tobytes() == l1.tobytes()
            key = lambda rec: (rec.r, rec.edges, rec.sizes_total, rec.sbar, rec.z)
            assert [key(rec) for rec in t0.layers] == \
                [key(rec) for rec in t1.layers]
            assert all(rec.rep_salience is None and rec.raw_salience_sum is None
                       for rec in t0.layers)
            assert all(rec.rep_salience is not None for rec in t1.layers)


class TestWeightsArchive:
    def test_round_trip(self, model, tmp_path):
        p = str(tmp_path / "weights")
        save_weights(model, p)
        back = load_weights(p)
        assert back.dims == model.dims
        assert back.model_id == model.model_id
        for b1, b2 in zip(model.blocks, back.blocks):
            assert np.array_equal(b1.w_qkv, b2.w_qkv)
            assert np.array_equal(b1.b_fc1, b2.b_fc1)
        assert np.array_equal(model.w_head, back.w_head)

    def test_synth_deterministic(self):
        dims = ModelDims(d=8, heads=2, d_ff=16, layers=2, n_classes=3)
        w1, w2 = synth_weights(9, dims), synth_weights(9, dims)
        assert np.array_equal(w1.blocks[1].w_fc2, w2.blocks[1].w_fc2)
        w3 = synth_weights(10, dims)
        assert not np.array_equal(w1.blocks[0].w_qkv, w3.blocks[0].w_qkv)

    def test_synth_archive_bytes_are_pinned(self, tmp_path):
        # the layout table fixes the draw order and the archive order
        save_weights(synth_weights(9, ModelDims(d=8, heads=2, d_ff=16,
                                                layers=2, n_classes=3)),
                     str(tmp_path))
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in ("manifest.json", "tensors.bin")}
        assert digests == {
            "manifest.json": "11dc61168bc4bf4b7c5ce8d70f5b81e0"
                             "5b2086b5bc714962641f395d81d74e47",
            "tensors.bin": "cf3daaf6622d93baa5338f5d54ba4461"
                           "0aaa0f9919fef3f0a33abba0458e21c3"}

    def test_truncated_blob_rejected(self, model, tmp_path):
        p = tmp_path / "weights"
        save_weights(model, str(p))
        blob = p / "tensors.bin"
        blob.write_bytes(blob.read_bytes()[:100])
        with pytest.raises(ArchiveError, match="truncated|extent"):
            load_weights(str(p))

    def test_bad_magic_rejected(self, model, tmp_path):
        p = tmp_path / "weights"
        save_weights(model, str(p))
        blob = p / "tensors.bin"
        raw = bytearray(blob.read_bytes())
        raw[:4] = b"XXXX"
        blob.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError, match="magic"):
            load_weights(str(p))

    def test_missing_tensor_rejected(self, model, tmp_path):
        import json
        p = tmp_path / "weights"
        save_weights(model, str(p))
        man = p / "manifest.json"
        doc = json.loads(man.read_text())
        del doc["tensors"]["head.weight"]
        man.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError, match="missing tensor"):
            load_weights(str(p))
