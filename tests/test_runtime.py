import dataclasses
import re

import numpy as np
import pytest

import naive_reference as ref
from adamerge import calibration, data
from adamerge.archive import ArchiveError, load_archive, save_archive
from adamerge.cli import method_salience
from adamerge.runtime import (BlockWeights, ModelDims, NonFiniteError,
                              RunConfig, TokenSequence, forward_block,
                              forward_model, load_weights, run_images,
                              save_weights, synth_weights)
from adamerge.schedule import LayerStats
from committed_digests import committed, sha256


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
    return RunConfig(salience=method_salience(method),
                     schedule=None if method == "none" else r)


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


def flat_stats(model, salience=True):
    return LayerStats(model_id=model.model_id, mu=np.zeros(4),
                      sigma=np.full(4, 0.1), r_max=6, alpha=1.0,
                      passes=1, calibration_size=1, salience=salience)


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
    @pytest.mark.parametrize("adaptive,small,r_small", [
        (False, 3, 3), (True, 6, 5)], ids=["fixed", "adaptive"])
    def test_r_above_a_is_clamped_and_flagged(self, model, image, adaptive,
                                              small, r_small):
        stats = LayerStats(model_id=model.model_id, mu=np.full(4, -10.0),
                           sigma=np.ones(4), r_max=200, alpha=1.0,
                           passes=1, calibration_size=1, salience=False)

        def schedule(r):  # a fixed r, or the stats with r_max = r
            return dataclasses.replace(stats, r_max=r) if adaptive else r

        _, trace = forward_model(make_seq(image), model,
                                 RunConfig(salience=False, schedule=schedule(200)))
        first = trace.layers[0]
        assert first.r == (first.n_before + 1) // 2 == 12 and first.r_clamped
        _, trace = forward_model(make_seq(image), model,
                                 RunConfig(salience=False, schedule=schedule(small)))
        assert trace.layers[0].r == r_small and not trace.layers[0].r_clamped

    @pytest.mark.parametrize("schedule", [None, 3, "adaptive"],
                             ids=["none", "fixed", "adaptive"])
    def test_input_sequence_left_as_given(self, model, image, schedule):
        if schedule == "adaptive":
            schedule = flat_stats(model)
        seq = make_seq(image)
        arrays = (seq.cls, seq.patches)
        before = [a.tobytes() for a in arrays]
        _, trace = forward_model(seq, model, RunConfig(schedule=schedule))
        if schedule is not None:
            assert trace.total_merges > 0
        assert all(got is want for got, want in
                   zip((seq.cls, seq.patches), arrays))
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("arg", [0, 2], ids=["patches", "sizes"])
    def test_merge_step_cannot_write_its_tokens(self, model, image, monkeypatch,
                                                arg):
        import adamerge.runtime as rt
        real = rt.execute_merge

        def writing(*args):
            args[arg][0] = 0
            return real(*args)

        monkeypatch.setattr(rt, "execute_merge", writing)
        with pytest.raises(ValueError, match="read-only"):
            forward_model(make_seq(image), model, fixed_cfg("tome", 3))

    def test_cls_untouched_by_merge(self, model, image):
        _, trace = forward_model(make_seq(image), model,
                                 fixed_cfg("adamerge", 4))
        for rec in trace.layers:
            assert rec.cls_digest_pre == rec.cls_digest_post != ""

    @pytest.mark.parametrize("salience,schedule,maps", [
        (False, 3, False), (True, 4, False), (False, 3, True),
        (True, "adaptive", False), (False, "adaptive", False)],
        ids=["tome", "adamerge", "tome-maps", "adamerge-stats", "tome-stats"])
    def test_each_block_reads_the_cls_row_the_last_one_wrote(
            self, model, image, forward_checking_cls, salience, schedule, maps):
        if schedule == "adaptive":
            schedule = flat_stats(model, salience)
        cls = np.random.default_rng(8).normal(size=16).astype(np.float32)
        _, trace = forward_checking_cls(
            TokenSequence(cls=cls, patches=image), model,
            RunConfig(salience=salience, schedule=schedule, track_maps=maps))
        assert trace.total_merges > 0

    def test_salience_conservation_per_layer(self, model, image,
                                             salience_calls):
        for cfg in (fixed_cfg("adamerge", 4), fixed_cfg("tome", 4),
                    RunConfig(salience=False, schedule=4, track_maps=True)):
            salience_calls.clear()
            _, trace = forward_model(make_seq(image), model, cfg)
            # a sum of n exactly where the run computes salience
            salience_calls.check(trace)
        assert salience_calls  # the track_maps run computed it

    @pytest.mark.parametrize("layers", [3, 5])
    def test_stats_of_another_depth_rejected(self, model, image, layers):
        stats = dataclasses.replace(flat_stats(model), mu=np.zeros(layers),
                                    sigma=np.full(layers, 0.1))
        with pytest.raises(ValueError,
                           match=f"stats cover {layers} layers, model has 4"):
            forward_model(make_seq(image), model, RunConfig(schedule=stats))

    def test_negative_fixed_r_rejected(self):
        with pytest.raises(ValueError, match="r=-1"):
            RunConfig(salience=False, schedule=-1)
        assert RunConfig(salience=False, schedule=0).schedule == 0
        assert RunConfig(salience=False, schedule=np.int64(3)).schedule == 3

    # a bool schedule used to run r=1 at every layer, a float one failed
    # inside select_merges and a string one on a str/int comparison
    @pytest.mark.parametrize("field,value,why", [
        ("schedule", True, "schedule must be None, LayerStats or a fixed "
         "merge count r >= 0, got r=True"),
        ("schedule", 2.0, "schedule must be None, LayerStats or a fixed "
         "merge count r >= 0, got r=2.0"),
        ("schedule", "3", "schedule must be None, LayerStats or a fixed "
         "merge count r >= 0, got r='3'"),
        ("salience", 1, "salience must be true or false, got salience=1"),
        ("salience", None, "salience must be true or false, got salience=None"),
        ("track_maps", np.bool_(True),
         f"track_maps must be true or false, got track_maps={np.bool_(True)!r}")],
        ids=["schedule-bool", "schedule-float", "schedule-str", "salience-int",
             "salience-none", "track_maps-numpy-bool"])
    def test_bad_field_rejected(self, field, value, why):
        with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
            RunConfig(**{"salience": False, field: value})

    @pytest.mark.parametrize("salience", [True, False])
    def test_stats_of_the_other_salience_rejected(self, model, salience):
        with pytest.raises(ValueError, match=re.escape(
                f"stats were calibrated with salience={not salience}, but the "
                f"run has salience={salience}")):
            RunConfig(salience=salience,
                      schedule=flat_stats(model, salience=not salience))

    def test_adaptive_rerun_identical(self, model):
        images = data.synth_images(6, 24, 16, 0.5, seed=7)
        stats = calibration.refine(model, images, r_max=6, passes=2)
        cfg = RunConfig(salience=True, schedule=stats)
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

    # an image of no patch tokens: nothing merges, so each run gives the
    # logits of `none`, and a salience sum of 0 = n where one is computed
    @pytest.mark.parametrize("cfg", [
        fixed_cfg("none", 0), fixed_cfg("tome", 3), fixed_cfg("adamerge", 3),
        RunConfig(salience=False, schedule=3, track_maps=True)],
        ids=["none", "tome", "adamerge", "tome-maps"])
    def test_zero_tokens(self, model, cfg, salience_calls):
        images = np.zeros((1, 0, 16), dtype=np.float32)
        [(want, _)] = run_images(model, images, fixed_cfg("none", 0))
        [(logits, trace)] = run_images(model, images, cfg)
        assert logits.tobytes() == want.tobytes()
        salience_calls.check(trace)
        if trace.merging:
            for rec in trace.layers:
                assert (rec.n_before, rec.r, rec.empty_b) == (0, 0, True)

    # np.concatenate used to reject these first, naming no field and no d
    @pytest.mark.parametrize("cls_shape,patch_shape,why", [
        ((8,), (10, 16), "CLS token has shape (8,), expected (16,)"),
        ((16,), (10, 8), "patch tokens have shape (10, 8), expected (N, 16)"),
        ((16,), (10, 16, 1),
         "patch tokens have shape (10, 16, 1), expected (N, 16)")],
        ids=["cls-width", "patch-width", "patch-rank"])
    @pytest.mark.parametrize("cfg", [fixed_cfg("none", 0),
                                     fixed_cfg("adamerge", 3)],
                             ids=["none", "adamerge"])
    def test_wrong_shape_names_the_field_and_d(self, model, cls_shape,
                                               patch_shape, why, cfg):
        seq = TokenSequence(cls=np.zeros(cls_shape, np.float32),
                            patches=np.ones(patch_shape, np.float32))
        with pytest.raises(ValueError, match=re.escape(
                f"the input {why} for d=16") + "$"):
            forward_model(seq, model, cfg)
        if cls_shape == (16,):  # run_images makes the CLS token itself
            with pytest.raises(ValueError, match=re.escape(
                    f"on image 1 the input {why} for d=16") + "$"):
                run_images(model, [np.ones((10, 16)), seq.patches], cfg)


class TestNonFinite:
    @pytest.fixture
    def weights(self):
        return synth_weights(11, ModelDims(d=16, heads=2, d_ff=32, layers=4,
                                           n_classes=6))

    def test_block_output_check_names_the_first_bad_weight(self, weights,
                                                           image):
        weights.blocks[1].w_fc1[0, 5] = np.nan
        weights.blocks[2].b_qkv[3] = np.inf  # later in archive order
        cfg = RunConfig(schedule=flat_stats(weights))
        with pytest.raises(NonFiniteError,
                           match=r"^the output of layer 1 is not finite$"):
            forward_model(make_seq(image), weights, cfg)
        with pytest.raises(NonFiniteError, match=re.escape(
                "tensor block01.w_fc1 holds nan at index (0, 5)")):
            run_images(weights, [image], cfg)

    def test_head_output_check_names_the_weight(self, weights, image):
        weights.b_head[2] = -np.inf
        with pytest.raises(NonFiniteError,
                           match=r"^the output of the head is not finite$"):
            forward_model(make_seq(image), weights, fixed_cfg("tome", 3))
        with pytest.raises(NonFiniteError, match=re.escape(
                "tensor head.bias holds -inf at index (2,)")):
            run_images(weights, [image], fixed_cfg("tome", 3))

    def test_overflow_of_finite_weights_names_image_and_layer(self, weights,
                                                              image):
        # the residual add of two ~3e38 float32 values overflows
        weights.blocks[2].b_proj[...] = 3e38
        weights.blocks[2].b_fc2[...] = 3e38
        with pytest.raises(NonFiniteError, match=re.escape(
                "every weight is finite, but on image 0 the output of layer 2 "
                "is not finite")):
            run_images(weights, [image], fixed_cfg("none", 0))


    @pytest.mark.parametrize("cfg", [
        lambda w: RunConfig(salience=True, schedule=flat_stats(w)),
        lambda w: fixed_cfg("tome", 3), lambda w: fixed_cfg("none", 0)],
        ids=["adaptive", "fixed", "none"])
    def test_non_finite_input_names_the_token_row(self, weights, image, cfg):
        # the adaptive run used to fail converting a NaN sbar to an int, and
        # the others blamed the output of layer 0
        cfg = cfg(weights)
        bad = image.copy()
        bad[3, 2] = np.nan
        with pytest.raises(NonFiniteError, match=r"^the input patch token "
                           r"row 3 is not finite$"):
            forward_model(make_seq(bad), weights, cfg)
        seq = make_seq(image)
        seq.cls = np.full(16, np.inf, dtype=np.float32)
        with pytest.raises(NonFiniteError,
                           match=r"^the input CLS token is not finite$"):
            forward_model(seq, weights, cfg)
        with pytest.raises(NonFiniteError, match=r"^on image 1 the input patch "
                           r"token row 3 is not finite$"):
            run_images(weights, [image, bad], cfg)
        # a bad input is named even where a weight is non-finite too
        weights.blocks[0].w_fc1[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"^on image 0 the input patch "
                           r"token row 3 is not finite$"):
            run_images(weights, [bad], cfg)


class TestSalienceOnlyWhenRead:
    @pytest.mark.parametrize("salience,schedule,track_maps,per_layer", [
        (False, None, False, 0),
        (False, 3, False, 0),
        (False, "adaptive", False, 0),
        (True, 3, False, 1),
        (True, "adaptive", False, 1),
        (False, 3, True, 1),
        (False, "adaptive", True, 1)],
        # an id names the (salience, schedule) pair: adp-only is salience
        # off with adaptive stats, sw-only salience on with a fixed r
        ids=["none", "tome", "adp-only", "sw-only", "adamerge",
             "tome-maps", "adp-only-maps"])
    def test_calls_per_layer(self, model, image, salience_calls, salience,
                             schedule, track_maps, per_layer):
        if schedule == "adaptive":
            schedule = flat_stats(model, salience)
        cfg = RunConfig(salience=salience, schedule=schedule,
                        track_maps=track_maps)
        _, trace = forward_model(make_seq(image), model, cfg)
        assert len(salience_calls) == per_layer * len(trace.layers)
        assert cfg.computes_salience == bool(per_layer)
        salience_calls.check(trace)

    @pytest.mark.parametrize("schedule", [3, "adaptive"],
                             ids=["fixed", "adaptive"])
    def test_maps_leave_a_salience_off_run_unchanged(self, model, schedule):
        if schedule == "adaptive":
            schedule = flat_stats(model, salience=False)

        def run(img, track_maps):
            return forward_model(make_seq(img), model, RunConfig(
                salience=False, schedule=schedule, track_maps=track_maps))

        for img in data.synth_images(3, 24, 16, 0.5, seed=12):
            (l0, t0), (l1, t1) = run(img, False), run(img, True)
            assert l0.tobytes() == l1.tobytes()
            key = lambda rec: (rec.r, rec.edges, rec.sizes_total, rec.sbar, rec.z)
            assert [key(rec) for rec in t0.layers] == \
                [key(rec) for rec in t1.layers]
            assert all(rec.rep_salience is None for rec in t0.layers)
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
        for f in ("manifest.json", "tensors.bin"):
            assert sha256((tmp_path / f).read_bytes()) == \
                committed(f"synth-weights:d8 {f}"), f

    def test_truncated_blob_rejected(self, model, tmp_path):
        p = tmp_path / "weights"
        save_weights(model, str(p))
        blob = p / "tensors.bin"
        blob.write_bytes(blob.read_bytes()[:100])
        with pytest.raises(ArchiveError, match="tensors.bin holds 92 bytes "
                           "after its magic, but the manifest's tensors take"):
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
        # an archive of every tensor but head.weight, blob bytes included
        p = tmp_path / "weights"
        save_weights(model, str(p))
        tensors, meta = load_archive(str(p))
        del tensors["head.weight"]
        save_archive(str(p), tensors, meta)
        with pytest.raises(ArchiveError, match=re.escape(
                f"archive at {p}: missing tensor head.weight")):
            load_weights(str(p))

    @pytest.mark.parametrize("edit,extra", [
        (lambda doc: doc["meta"].update(layers=doc["meta"]["layers"] - 1), None),
        # an empty tensor adds no blob byte
        (lambda doc: doc["tensors"].append(["stray", [0]]), "stray")],
        ids=["fewer-layers", "stray-tensor"])
    def test_extra_tensor_rejected(self, model, tmp_path, edit, extra):
        import json
        p = tmp_path / "weights"
        save_weights(model, str(p))
        man = p / "manifest.json"
        doc = json.loads(man.read_text())
        edit(doc)
        man.write_text(json.dumps(doc))
        layers = doc["meta"]["layers"]
        extra = extra or f"block{layers:02d}.ln1_gamma"
        with pytest.raises(ArchiveError, match=re.escape(
                f"archive at {p}: unexpected tensor {extra}; the meta describes "
                f"a {layers}-layer model")):
            load_weights(str(p))

    def test_tensor_shape_mismatch_rejected(self, model, tmp_path):
        import json
        p = tmp_path / "weights"
        save_weights(model, str(p))
        man = p / "manifest.json"
        doc = json.loads(man.read_text())
        entry = next(e for e in doc["tensors"] if e[0] == "head.weight")
        entry[1] = entry[1][::-1]
        man.write_text(json.dumps(doc))
        shape = tuple(entry[1])
        with pytest.raises(ArchiveError, match=re.escape(
                f"archive at {p}: tensor head.weight: shape {shape}, expected "
                f"{shape[::-1]}")):
            load_weights(str(p))

    @pytest.mark.parametrize("key,value,why", [
        *((k, None, f"'{k}'") for k in ("d", "heads", "d_ff", "layers", "n_classes")),
        ("d", "64", "d must be an integer >= 1, got d='64'")],
        ids=["no-d", "no-heads", "no-d_ff", "no-layers", "no-n_classes", "d-str"])
    def test_bad_model_meta_rejected(self, model, tmp_path, key, value, why):
        import json
        p = tmp_path / "weights"
        save_weights(model, str(p))
        man = p / "manifest.json"
        doc = json.loads(man.read_text())
        if value is None:
            del doc["meta"][key]
        else:
            doc["meta"][key] = value
        man.write_text(json.dumps(doc))
        with pytest.raises(ArchiveError, match=re.escape(
                f"archive at {p}: bad model meta ({why})")):
            load_weights(str(p))


class TestModelDims:
    @pytest.mark.parametrize("field,value", [
        ("d", 0), ("heads", 0), ("d_ff", -1), ("layers", 0), ("n_classes", 0),
        ("heads", True), ("layers", 2.0), ("d", "16"), ("d_ff", None)])
    def test_non_positive_or_non_integer_size_rejected(self, field, value):
        sizes = dict(d=16, heads=2, d_ff=32, layers=2, n_classes=4)
        sizes[field] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be an integer >= 1, got {field}={value!r}")):
            ModelDims(**sizes)

    def test_numpy_integers_accepted(self):
        dims = ModelDims(d=np.int64(16), heads=2, d_ff=32, layers=2)
        assert dims.d == 16
