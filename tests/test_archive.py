import json
import re
import tracemalloc

import numpy as np
import pytest

from adamerge import data
from adamerge.archive import MAGIC, ArchiveError, load_archive, save_archive
from adamerge.cli import main

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
    p = str(tmp_path / "nope")
    with pytest.raises(ArchiveError, match=f"^archive at {re.escape(p)}: not "
                       "a tensor archive$"):
        load_archive(p)


def test_bad_format_id(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.zeros(2, np.float32)})
    _edit_manifest(p, lambda doc: doc.update(format="other"))
    with pytest.raises(ArchiveError, match=f"^archive at {re.escape(str(p))}: "
                       "unsupported archive format 'other' "):
        load_archive(str(p))


def test_length_shape_mismatch_rejected(tmp_path):
    # the shape claims 5 floats, the blob holds 4
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.zeros(4, np.float32)})
    _edit_manifest(p, lambda doc: doc.update(tensors=[["a", [5]]]))
    with pytest.raises(ArchiveError, match="tensors.bin holds 16 bytes after "
                       "its magic, but the manifest's tensors take 20"):
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
    assert doc["tensors"] == [["w", [5, 3]], ["s", [1]], ["e", [0, 4]],
                              ["v", [6]]]


def test_loaded_arrays_are_read_only_float32_views(tmp_path):
    p = str(tmp_path / "arc")
    save_archive(p, {"a": np.ones((3, 4), np.float32), "b": np.ones(5),
                     "e": np.zeros((0, 2), np.float32)})
    back, _ = load_archive(p)
    assert list(back) == ["a", "b", "e"]
    for arr in back.values():
        assert arr.dtype == np.float32 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_save_replaces_a_mapped_archive(tmp_path):
    p = str(tmp_path / "arc")
    save_archive(p, {"a": np.ones((3, 4), np.float32)}, {"v": 1})
    old, _ = load_archive(p)
    save_archive(p, {"b": np.full(7, 2.0, np.float32)}, {"v": 2})
    assert old["a"].tobytes() == np.ones((3, 4), np.float32).tobytes()
    new, meta = load_archive(p)
    assert list(new) == ["b"] and meta == {"v": 2}
    assert new["b"].tobytes() == np.full(7, 2.0, np.float32).tobytes()
    assert sorted(q.name for q in (tmp_path / "arc").iterdir()) == [
        "manifest.json", "tensors.bin"]


def test_failed_save_leaves_the_old_archive(tmp_path):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones(3, np.float32)})
    before = {q.name: q.read_bytes() for q in p.iterdir()}
    with pytest.raises(ValueError):
        save_archive(str(p), {"a": np.ones(3, np.float32), "b": ["x"]})
    assert {q.name: q.read_bytes() for q in p.iterdir()} == before


@pytest.mark.parametrize("cut", [8 + 4 * 12 + 2, 8 + 4 * 12, 3])
def test_truncated_blob_rejected(tmp_path, cut):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})
    blob = p / "tensors.bin"
    blob.write_bytes(blob.read_bytes()[:cut])
    with pytest.raises(ArchiveError, match=f"^archive at {re.escape(str(p))}: "
                       f"(tensors.bin holds {cut - 8} bytes after its magic, "
                       "but the manifest's tensors take 76 |bad magic)"):
        load_archive(str(p))


@pytest.mark.parametrize("extra", [1, 4])
def test_trailing_bytes_rejected(tmp_path, extra):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32)})
    with open(p / "tensors.bin", "ab") as g:
        g.write(b"\0" * extra)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: tensors.bin holds {48 + extra} bytes after its "
            "magic, but the manifest's tensors take 48 ")):
        load_archive(str(p))


def test_blob_shrinking_before_the_map_is_rejected(tmp_path, monkeypatch):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})
    memmap = np.memmap

    def truncate_then_map(*args, **kwargs):
        # validated against the full size, nothing mapped yet: cut into b
        with open(p / "tensors.bin", "r+b") as g:
            g.truncate(8 + 4 * 12 + 5)
        return memmap(*args, **kwargs)

    monkeypatch.setattr(np, "memmap", truncate_then_map)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: only 53 of the 76 payload bytes of tensors.bin "
            "were mapped")):
        load_archive(str(p))


def _never_mapped(*args, **kwargs):
    raise AssertionError("blob mapped before validation")


@pytest.mark.parametrize("entry", [
    {"name": "b", "shape": [7]}, ["b"], ["b", [7], "f32"], [7, [7]],
    ["b", 7], None],
    ids=["object", "no-shape", "three-items", "int-name", "int-shape", "null"])
def test_entry_that_is_not_a_name_shape_pair_rejected(tmp_path, monkeypatch,
                                                      entry):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones((3, 4), np.float32),
                          "b": np.ones(7, np.float32)})
    _edit_manifest(p, lambda doc: doc["tensors"].__setitem__(1, entry))
    monkeypatch.setattr(np, "memmap", _never_mapped)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: malformed tensor entry {json.dumps(entry)}; "
            "expected [name, shape]")):
        load_archive(str(p))


@pytest.mark.parametrize("shape", [[-1], [7.0], [True], ["7"], [[7]]],
                         ids=["negative", "float", "bool", "string", "nested"])
def test_malformed_shape_rejected(tmp_path, monkeypatch, shape):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones(7, np.float32)})
    _edit_manifest(p, lambda doc: doc.update(tensors=[["a", shape]]))
    monkeypatch.setattr(np, "memmap", _never_mapped)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: tensor a: malformed shape {shape!r}")):
        load_archive(str(p))


def test_name_listed_twice_rejected(tmp_path, monkeypatch):
    # json.load keeps only the last of two keys of one name in an object;
    # a list keeps both entries, and the load refuses them
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones(3, np.float32),
                          "b": np.ones(3, np.float32)})
    _edit_manifest(p, lambda doc: doc.update(tensors=[["a", [3]], ["a", [3]]]))
    monkeypatch.setattr(np, "memmap", _never_mapped)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: tensor a is listed twice")):
        load_archive(str(p))


def test_v1_archive_exits_2_with_the_rerun_hint(tmp_path, capsys):
    # the v1 layout: a name -> {shape, dtype, offset, length} table over
    # the same blob bytes
    p = tmp_path / "arc"
    save_archive(str(p), {"images": np.ones((1, 2, 4), np.float32)},
                 {"kind": "token-dataset"})
    _edit_manifest(p, lambda doc: doc.update(
        format="adamerge-tensor-archive-v1",
        tensors={"images": {"shape": [1, 2, 4], "dtype": "f32", "offset": 0,
                            "length": 32}}))
    assert main(["run", "--weights", str(p), "--dataset", str(p),
                 "--config", "none"]) == 2
    assert capsys.readouterr().err == (
        f"error: archive at {p}: unsupported archive format "
        "'adamerge-tensor-archive-v1' (this build reads "
        "'adamerge-tensor-archive-v2'; re-run the adamerge synth-weights or "
        "synth command that wrote it)\n")


@pytest.mark.parametrize("shape", [
    [2**70, 0], [2**61, 0], [0, 2**60, 2], [1] * 64 + [0], [2**62]],
    ids=["dim-beyond-intp", "bytes-beyond-intp", "product-beyond-intp",
         "65-dims", "bytes-wrap-to-zero"])
def test_unrepresentable_shape_rejected(tmp_path, shape):
    # e holds no byte; 4 * 2**62 bytes would wrap to 0 in 64-bit arithmetic
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones(3, np.float32),
                          "e": np.zeros(0, np.float32)})
    _edit_manifest(p, lambda doc: doc["tensors"][1].__setitem__(1, shape))
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: tensor e: shape {tuple(shape)} is too large "
            "for an array")):
        load_archive(str(p))
    # the largest empty shape numpy still represents loads
    _edit_manifest(p, lambda doc: doc["tensors"][1].__setitem__(1, [2**61 - 1, 0]))
    assert load_archive(str(p))[0]["e"].shape == (2**61 - 1, 0)


@pytest.mark.parametrize("meta", [[1], "x", None])
def test_meta_must_be_an_object(tmp_path, monkeypatch, meta):
    p = tmp_path / "arc"
    save_archive(str(p), {"a": np.ones(3, np.float32)})
    _edit_manifest(p, lambda doc: doc.update(meta=meta))

    monkeypatch.setattr(np, "memmap", _never_mapped)
    with pytest.raises(ArchiveError, match=re.escape(
            f"archive at {p}: meta must be a JSON object, got ")):
        load_archive(str(p))


def test_empty_extent_overlaps_nothing(tmp_path):
    # an empty tensor between two others takes no byte: b starts where a ends
    p = tmp_path / "arc"
    a, b = np.arange(3, dtype=np.float32), np.arange(3, 5, dtype=np.float32)
    save_archive(str(p), {"a": a, "e": np.zeros((2, 0), np.float32), "b": b})
    assert (p / "tensors.bin").read_bytes() == MAGIC + a.tobytes() + b.tobytes()
    back, _ = load_archive(str(p))
    assert back["e"].shape == (2, 0)
    assert back["a"].tobytes() == a.tobytes() and back["b"].tobytes() == b.tobytes()


class TestPeakMemory:
    def test_load_archive_holds_one_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {f"t{k}": rng.normal(size=(PAYLOAD // 16,)).astype(np.float32)
                   for k in range(4)}
        p = str(tmp_path / "arc")
        save_archive(p, tensors)
        del tensors
        assert _peak_bytes(load_archive, p) <= SMALL

    def test_load_dataset_holds_one_payload(self, tmp_path):
        imgs = data.synth_images(64, 128, PAYLOAD // (64 * 128 * 4), 0.5, seed=3)
        assert imgs.nbytes == PAYLOAD
        p = str(tmp_path / "ds")
        data.save_dataset(p, imgs)
        del imgs
        assert _peak_bytes(data.load_dataset, p) <= SMALL

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
        # token t is a noisy copy of the single prototype t % 4
        img = data.synth_images(1, 10, 4, 1.0, seed=2)[0]
        diffs = np.linalg.norm(img[:, None] - img[None, :], axis=-1)
        proto = np.arange(10) % data.PROTOTYPES
        same = proto[:, None] == proto[None, :]
        assert diffs[same].max() < 0.5
        assert diffs[~same].min() > 0.5

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

    # these used to raise a TypeError naming no field
    @pytest.mark.parametrize("field,value", [
        ("n_images", 2.0), ("n_tokens", 8.5), ("n_images", True), ("dim", "4")])
    def test_non_integer_size_rejected(self, field, value):
        sizes = dict(n_images=2, n_tokens=8, dim=4)
        sizes[field] = value
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be an integer >= 1, got {field}={value!r}") + "$"):
            data.synth_images(**sizes, redundancy=0.5, seed=0)

    def test_dataset_loads_into_one_array(self, tmp_path):
        imgs = data.synth_images(3, 8, 4, 0.5, seed=4)
        p = str(tmp_path / "ds")
        data.save_dataset(p, imgs)
        back, _ = data.load_dataset(p)
        assert back.dtype == np.float32 and back.shape == (3, 8, 4)
        assert back.flags.c_contiguous and not back.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back[0, 0, 0] = 1.0

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["tensors"].clear(),
         "holds one 3-D tensor 'images', found 0 tensors"),
        (lambda doc: doc["meta"].update(kind="vit-weights"), "token dataset"),
    ], ids=["missing-image", "wrong-kind"])
    def test_inconsistent_dataset_rejected(self, tmp_path, edit, match):
        p = tmp_path / "ds"
        data.save_dataset(str(p), data.synth_images(3, 8, 4, 0.5, seed=4))
        _edit_manifest(p, edit)
        if not json.loads((p / "manifest.json").read_text())["tensors"]:
            (p / "tensors.bin").write_bytes(MAGIC)  # no tensor, no byte
        with pytest.raises(ArchiveError, match=match):
            data.load_dataset(str(p))
