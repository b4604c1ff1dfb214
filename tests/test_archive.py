import json
import tracemalloc

import numpy as np
import pytest

from adamerge import data
from adamerge.archive import MAGIC, ArchiveError, load_archive, save_archive

PAYLOAD = 4 << 20          # bytes of float32 data in the memory-bound tests
SMALL = 64 << 10           # allowance for manifests, file buffers, dicts


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _edit_manifest(path, edit):
    man = path / "manifest.json"
    doc = json.loads(man.read_text())
    edit(doc)
    man.write_text(json.dumps(doc))


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(7,)).astype(np.float32),
        "c": rng.normal(size=(2, 3, 4)).astype(np.float32),
    }
    p = str(tmp_path / "arc")
    save_archive(p, tensors, {"note": "x"})
    back, meta = load_archive(p)
    assert meta["note"] == "x"
    for name, arr in tensors.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()


def test_missing_directory(tmp_path):
    with pytest.raises(ArchiveError):
        load_archive(str(tmp_path / "nope"))


def test_bad_format_id(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.zeros(2, np.float32)})
    doc = json.loads((p / "manifest.json").read_text())
    doc["format"] = "other"
    (p / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="format"):
        load_archive(str(p))


def test_wrong_dtype_rejected(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.zeros(2, np.float32)})
    doc = json.loads((p / "manifest.json").read_text())
    doc["tensors"]["a"]["dtype"] = "f64"
    (p / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError, match="dtype"):
        load_archive(str(p))


def test_length_shape_mismatch_rejected(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.zeros(4, np.float32)})
    doc = json.loads((p / "manifest.json").read_text())
    doc["tensors"]["a"]["shape"] = [5]
    (p / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ArchiveError):
        load_archive(str(p))


def test_blob_is_magic_plus_tensor_bytes(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.normal(size=(5, 3)).astype(np.float32),
               "s": np.float32(2.5),
               "e": np.zeros((0, 4), np.float32),
               "v": rng.normal(size=(6,))}          # float64, stored as f32
    save_archive(str(tmp_path / "arc"), tensors)
    expected = MAGIC + b"".join(np.asarray(t, dtype="<f4").tobytes()
                                for t in tensors.values())
    assert (tmp_path / "arc" / "tensors.bin").read_bytes() == expected
    doc = json.loads((tmp_path / "arc" / "manifest.json").read_text())
    assert doc["tensors"]["s"]["shape"] == [1]
    assert doc["tensors"]["v"] == {"shape": [6], "dtype": "f32",
                                   "offset": 64, "length": 24}


def test_loaded_arrays_are_owned_writable_float32(tmp_path):
    p = str(tmp_path / "arc")
    save_archive(p, {"a": np.ones((3, 4), np.float32), "b": np.ones(5)})
    back, _ = load_archive(p)
    for arr in back.values():
        assert arr.base is None
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.dtype == np.float32


@pytest.mark.parametrize("cut", [8 + 4 * 12 + 2, 8 + 4 * 12, 3])
def test_truncated_blob_rejected(tmp_path, cut):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})
    blob = p / "tensors.bin"
    blob.write_bytes(blob.read_bytes()[:cut])
    with pytest.raises(ArchiveError, match="extent|magic"):
        load_archive(str(p))


def test_blob_shrinking_during_load_is_a_short_read(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})

    def truncate_then_allocate(meta, shapes):
        with open(p / "tensors.bin", "r+b") as f:
            f.truncate(8 + 4 * 12 + 5)
        return {name: np.empty(shape, np.float32)
                for name, shape in shapes.items()}

    with pytest.raises(ArchiveError, match="tensor b: short read"):
        load_archive(str(p), into=truncate_then_allocate)


@pytest.mark.parametrize("edit, match", [
    (lambda t: t["b"].update(offset=40), "tensors a and b: extents overlap"),
    (lambda t: (t["a"].update(offset=4), t["b"].update(offset=0)),
     "tensors b and a: extents overlap"),
    (lambda t: t["b"].update(offset=0, length=48, shape=[12]),
     "tensors (a and b|b and a): extents overlap"),
    (lambda t: t["a"].update(offset=-4), "tensor a: offset"),
    (lambda t: t["b"].update(length=-28), "tensor b: offset"),
], ids=["overlap", "overlap-out-of-order", "same-start", "negative-offset",
        "negative-length"])
def test_bad_extents_rejected_before_any_read(tmp_path, edit, match):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})
    _edit_manifest(p, lambda doc: edit(doc["tensors"]))

    def never(meta, shapes):
        raise AssertionError("destinations requested before validation")

    with pytest.raises(ArchiveError, match=match):
        load_archive(str(p), into=never)


def test_empty_extent_overlaps_nothing(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "e": np.zeros(0, np.float32)})
    _edit_manifest(p, lambda doc: doc["tensors"]["e"].update(offset=8))
    back, _ = load_archive(str(p))
    assert back["e"].shape == (0,)


class TestPeakMemory:
    def test_load_archive_holds_one_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {f"t{k}": rng.normal(size=(PAYLOAD // 16,)).astype(np.float32)
                   for k in range(4)}
        p = str(tmp_path / "arc")
        save_archive(p, tensors)
        del tensors
        assert _peak_bytes(load_archive, p) <= 1.1 * PAYLOAD

    def test_load_dataset_holds_one_payload(self, tmp_path):
        imgs = data.synth_images(64, 128, PAYLOAD // (64 * 128 * 4), 0.5, seed=3)
        assert imgs.nbytes == PAYLOAD
        p = str(tmp_path / "ds")
        data.save_dataset(p, imgs)
        del imgs
        assert _peak_bytes(data.load_dataset, p) <= 1.1 * PAYLOAD

    def test_save_archive_copies_nothing(self, tmp_path):
        rng = np.random.default_rng(4)
        tensors = {f"t{k}": rng.normal(size=(PAYLOAD // 16,)).astype(np.float32)
                   for k in range(4)}
        peak = _peak_bytes(save_archive, str(tmp_path / "arc"), tensors)
        assert peak <= 0.1 * PAYLOAD + SMALL


class TestSynthData:
    def test_rho_zero_no_prototypes(self):
        imgs = data.synth_images(2, 10, 4, 0.0, seed=1)
        assert imgs.shape == (2, 10, 4)
        # all tokens i.i.d.; no pair should be near-identical
        diffs = np.linalg.norm(imgs[0][:, None] - imgs[0][None, :], axis=-1)
        np.fill_diagonal(diffs, np.inf)
        assert diffs.min() > 0.2

    def test_rho_one_single_prototype_near_duplicates(self):
        imgs = data.synth_images(1, 10, 4, 1.0, seed=2, k_prototypes=1)
        diffs = np.linalg.norm(imgs[0] - imgs[0][0], axis=-1)
        assert diffs.max() < 0.5

    def test_seed_determinism_byte_equality(self, tmp_path):
        for k in range(2):
            imgs = data.synth_images(3, 8, 4, 0.7, seed=9)
            data.save_dataset(str(tmp_path / f"d{k}"), imgs)
        b0 = (tmp_path / "d0" / "tensors.bin").read_bytes()
        b1 = (tmp_path / "d1" / "tensors.bin").read_bytes()
        assert b0 == b1
        m0 = (tmp_path / "d0" / "manifest.json").read_bytes()
        m1 = (tmp_path / "d1" / "manifest.json").read_bytes()
        assert m0 == m1

    def test_dataset_round_trip(self, tmp_path):
        imgs = data.synth_images(3, 8, 4, 0.5, seed=4)
        p = str(tmp_path / "ds")
        data.save_dataset(p, imgs, {"redundancy": 0.5})
        back, meta = data.load_dataset(p)
        assert np.array_equal(back, imgs)
        assert meta["redundancy"] == 0.5

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            data.synth_images(1, 4, 2, 1.5, seed=0)

    def test_dataset_loads_into_one_array(self, tmp_path):
        imgs = data.synth_images(3, 8, 4, 0.5, seed=4)
        p = str(tmp_path / "ds")
        data.save_dataset(p, imgs)
        back, _ = data.load_dataset(p)
        assert back.base is None and back.flags.writeable
        assert back.dtype == np.float32 and back.shape == (3, 8, 4)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["tensors"].pop("image_00001"), "missing tensor image_00001"),
        (lambda doc: doc["meta"].update(n_tokens=9), "image_00000: shape"),
        (lambda doc: doc["meta"].pop("dim"), "bad dataset meta"),
        (lambda doc: doc["meta"].update(kind="vit-weights"), "token dataset"),
    ], ids=["missing-image", "shape-mismatch", "no-dim", "wrong-kind"])
    def test_inconsistent_dataset_rejected(self, tmp_path, edit, match):
        p = tmp_path / "ds"
        data.save_dataset(str(p), data.synth_images(3, 8, 4, 0.5, seed=4))
        _edit_manifest(p, edit)
        with pytest.raises(ArchiveError, match=match):
            data.load_dataset(str(p))
