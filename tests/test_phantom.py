import numpy as np
import pytest

from mmtseg.phantom import (
    CLASS_EDEMA,
    CLASS_ENHANCING,
    CLASS_NECROTIC,
    GenerationError,
    LabelError,
    LabelVolume,
    VolumeFormatError,
    derive_regions,
    generate_phantom,
    read_labels,
    read_volume,
    write_labels,
    write_volume,
)


class TestGeneration:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_regions_nested_and_nonempty(self, seed):
        _, labels = generate_phantom(seed, (16, 16, 16))
        regions = derive_regions(labels)
        assert np.count_nonzero(regions.et & ~regions.tc) == 0
        assert np.count_nonzero(regions.tc & ~regions.wt) == 0
        assert regions.et.any() and regions.tc.any() and regions.wt.any()
        # each class individually populated
        for cls in (CLASS_NECROTIC, CLASS_EDEMA, CLASS_ENHANCING):
            assert np.any(labels.data == cls)

    def test_nesting_survives_many_seeds_at_min_extents(self):
        for seed in range(120):
            _, labels = generate_phantom(seed, (16, 16, 16))
            r = derive_regions(labels)
            assert not np.any(r.et & ~r.tc)
            assert not np.any(r.tc & ~r.wt)

    def test_same_seed_bitwise_identical(self):
        v1, l1 = generate_phantom(99, (16, 20, 18))
        v2, l2 = generate_phantom(99, (16, 20, 18))
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(l1.data, l2.data)

    def test_different_seeds_differ(self):
        v1, _ = generate_phantom(1, (16, 16, 16))
        v2, _ = generate_phantom(2, (16, 16, 16))
        assert not np.array_equal(v1.data, v2.data)

    def test_flair_contrast_direction(self):
        vol, labels = generate_phantom(5, (32, 32, 32))
        flair = vol.data[3]
        edema = labels.data == CLASS_EDEMA
        background = vol.data.sum(axis=0) == 0.0
        assert flair[edema].mean() > flair[background].mean()

    def test_enhancing_bright_only_in_t1c(self):
        vol, labels = generate_phantom(11, (32, 32, 32))
        et = labels.data == CLASS_ENHANCING
        head_plain = (labels.data == 0) & (vol.data.sum(axis=0) != 0.0)
        t1, t1c = vol.data[0], vol.data[1]
        assert t1c[et].mean() > t1c[head_plain].mean()
        assert t1[et].mean() < t1[head_plain].mean()

    def test_background_exactly_zero(self):
        vol, labels = generate_phantom(3, (16, 16, 16))
        assert np.isfinite(vol.data).all()
        background_per_channel = vol.data == 0.0
        outside = background_per_channel.all(axis=0)
        assert outside.any()
        assert np.all(labels.data[outside] == 0)

    def test_small_extents_rejected(self):
        with pytest.raises(GenerationError):
            generate_phantom(0, (15, 16, 16))
        with pytest.raises(GenerationError):
            generate_phantom(0, (16, 16))


class TestDeriveRegions:
    def test_all_background(self):
        r = derive_regions(LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8)))
        assert not r.wt.any() and not r.tc.any() and not r.et.any()

    def test_single_enhancing_voxel_in_all_masks(self):
        data = np.zeros((4, 4, 4), dtype=np.uint8)
        data[1, 2, 3] = CLASS_ENHANCING
        r = derive_regions(LabelVolume(data))
        for mask in (r.wt, r.tc, r.et):
            assert mask.sum() == 1 and mask[1, 2, 3]

    def test_mixed_label_set_arithmetic(self, rng):
        data = rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8)
        r = derive_regions(LabelVolume(data))
        n = {c: int(np.sum(data == c)) for c in (1, 2, 3)}
        assert r.wt.sum() == n[1] + n[2] + n[3]
        assert r.tc.sum() == n[1] + n[3]
        assert r.et.sum() == n[3]

    def test_unknown_class_rejected(self):
        data = np.zeros((3, 3, 3), dtype=np.uint8)
        data[0, 0, 0] = 4
        with pytest.raises(LabelError, match=r"\[4\]"):
            derive_regions(LabelVolume(data))


class TestVolumeFiles:
    def test_volume_roundtrip_bitwise(self, tmp_path):
        vol, labels = generate_phantom(8, (16, 16, 16))
        vpath = tmp_path / "case_img.mmts"
        lpath = tmp_path / "case_lbl.mmts"
        write_volume(vpath, vol)
        write_labels(lpath, labels)
        assert np.array_equal(read_volume(vpath).data, vol.data)
        assert np.array_equal(read_labels(lpath).data, labels.data)

    def test_rewrite_identical_bytes(self, tmp_path):
        vol, _ = generate_phantom(8, (16, 16, 16))
        p1, p2 = tmp_path / "a.mmts", tmp_path / "b.mmts"
        write_volume(p1, vol)
        write_volume(p2, vol)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        vol, _ = generate_phantom(8, (16, 16, 16))
        path = tmp_path / "vol.mmts"
        write_volume(path, vol)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(VolumeFormatError, match="payload"):
            read_volume(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "vol.mmts"
        path.write_bytes(b"NOTAVOL1 1 2 2 2 f32\n" + b"\x00" * 32)
        with pytest.raises(VolumeFormatError, match="header"):
            read_volume(path)

    # np.prod wrapped 4 * 2^62 to 0 in int64, so an empty payload passed the
    # size check and failed in reshape with no file named
    @pytest.mark.parametrize("extents,payload", [(b"4 4611686018427387904 1 1", 0),
                                                 (b"-4 -1 1 1", 16)])
    def test_huge_or_negative_extents_rejected(self, tmp_path, extents, payload):
        path = tmp_path / "vol.mmts"
        path.write_bytes(b"MMTSVOL1 " + extents + b" f32\n" + bytes(payload))
        with pytest.raises(VolumeFormatError, match="vol.mmts"):
            read_volume(path)

    def test_label_file_uses_u8_single_channel(self, tmp_path):
        _, labels = generate_phantom(8, (16, 16, 16))
        path = tmp_path / "lbl.mmts"
        write_labels(path, labels)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"MMTSVOL1 1 16 16 16 u8"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_volume(tmp_path / "nope.mmts")
