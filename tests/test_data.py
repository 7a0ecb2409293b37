"""Manifest grammar, PGM round-trips, resize arithmetic, synthetic data,

and checkpoint persistence.
"""

from unittest import mock

import numpy as np
import pytest

from capsroute.data import (
    Checkpoint,
    DataError,
    ManifestEntry,
    generate_synthetic,
    load_checkpoint,
    load_manifest,
    load_pgm,
    resize_bilinear,
    rng_from_token,
    rng_state_token,
    save_checkpoint,
    synth_dataset,
    write_manifest,
    write_pgm,
)


class TestManifest:
    def test_labels_no_boxes_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,labels,boxes\nimg/a.pgm,2;5,\n")
        entries = load_manifest(p)
        assert entries == [ManifestEntry(path="img/a.pgm", labels=(2, 5), boxes=())]

    def test_boxes_no_labels_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,labels,boxes\nimg/b.pgm,,0:10:20:30:40\n")
        entries = load_manifest(p)
        assert entries == [ManifestEntry(path="img/b.pgm", labels=(), boxes=((0, 10, 20, 30, 40),))]

    def test_three_row_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry("a.pgm", (0,), ((0, 1, 2, 3, 4),)),
            ManifestEntry("b.pgm", (), ()),
            ManifestEntry("c.pgm", (1, 2, 3), ((1, 5, 5, 8, 8), (2, 0, 0, 4, 4))),
        ]
        p = tmp_path / "m.csv"
        write_manifest(entries, p)
        assert load_manifest(p) == entries
        text_once = p.read_text()
        write_manifest(load_manifest(p), p)
        assert p.read_text() == text_once

    def test_bad_row_reports_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,labels,boxes\nok.pgm,,\nbad.pgm,x;y,\n")
        with pytest.raises(DataError, match="line 3"):
            load_manifest(p)

    def test_bad_box_reports_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,labels,boxes\nbad.pgm,,1:2:3\n")
        with pytest.raises(DataError, match="line 2"):
            load_manifest(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a.pgm,,\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(p)

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"path,labels,boxes\na\xff.pgm,0,\n")
        with pytest.raises(DataError, match="m.csv: cannot be read as text"):
            load_manifest(p)

    @pytest.mark.parametrize("path", ["a,b.pgm", "a\nb.pgm", "a.pgm\n", " a.pgm", ""])
    def test_unreadable_path_rejected_on_write(self, tmp_path, path):
        with pytest.raises(DataError, match="image path"):
            write_manifest([ManifestEntry(path, (0,))], tmp_path / "m.csv")

    @pytest.mark.parametrize("box", ["0:3:4:0:-2", "0:3:4:0:5", "0:3:4:5:0", "0:-1:4:5:5", "0:3:-4:5:5"])
    def test_impossible_box_rejected(self, tmp_path, box):
        p = tmp_path / "m.csv"
        p.write_text(f"path,labels,boxes\na.pgm,0,{box}\n")
        with pytest.raises(DataError, match="line 2"):
            load_manifest(p)
        entry = ManifestEntry("a.pgm", (0,), (tuple(int(v) for v in box.split(":")),))
        with pytest.raises(DataError, match="box"):
            write_manifest([entry], tmp_path / "w.csv")

    def test_duplicate_path_warns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,labels,boxes\na.pgm,,\na.pgm,1,\n")
        with pytest.warns(UserWarning, match="duplicate"):
            load_manifest(p)

    # fields Python's int accepts but that are not plain ASCII digits: an
    # underscore (1_0 would load as 10), a space before or after, a sign,
    # and non-ASCII digits; each sits inside its column, which is stripped
    HOSTILE_INTEGERS = ["1_0", " 2", "2 ", "+3", "-1", "\u0663", "\uff11"]

    @pytest.mark.parametrize("field", HOSTILE_INTEGERS)
    def test_label_not_plain_digits_rejected(self, tmp_path, field):
        p = tmp_path / "m.csv"
        p.write_text(f"path,labels,boxes\na.pgm,0;{field};1,\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: bad label list"):
            load_manifest(p)

    @pytest.mark.parametrize("field", HOSTILE_INTEGERS)
    @pytest.mark.parametrize("slot", range(5))
    def test_box_field_not_plain_digits_rejected(self, tmp_path, field, slot):
        box = ["0", "1", "0", "1", "1"]
        box[slot] = field
        p = tmp_path / "m.csv"
        p.write_text(f"path,labels,boxes\na.pgm,0,0:0:0:1:1;{':'.join(box)};0:0:0:1:1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: bad box"):
            load_manifest(p)

    @pytest.mark.parametrize("labels", [(True,), (False, 0), (-1,), (1.0,), ("2",), (2**63,), (10**5000,)])
    def test_label_that_reads_back_differently_rejected_on_write(self, tmp_path, labels):
        out = tmp_path / "m.csv"
        with pytest.raises(DataError, match="label 0"):
            write_manifest([ManifestEntry("a.pgm", labels)], out)
        assert not out.exists()

    @pytest.mark.parametrize("box", [(True, 0, 0, 1, 1), (0, 0.0, 0, 1, 1), (0, 0, 0, 1), (-1, 0, 0, 1, 1)])
    def test_box_that_reads_back_differently_rejected_on_write(self, tmp_path, box):
        out = tmp_path / "m.csv"
        with pytest.raises(DataError, match="box"):
            write_manifest([ManifestEntry("a.pgm", (0,), (box,))], out)
        assert not out.exists()

    def test_numpy_integers_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        write_manifest([ManifestEntry("a.pgm", (np.int64(3),), (tuple(np.arange(1, 6)),))], p)
        assert load_manifest(p) == [ManifestEntry("a.pgm", (3,), ((1, 2, 3, 4, 5),))]


class TestPgm:
    def test_all_black(self, tmp_path):
        p = tmp_path / "z.pgm"
        write_pgm(np.zeros((4, 6)), p)
        np.testing.assert_array_equal(load_pgm(p), np.zeros((4, 6)))

    def test_maxval_pixel_is_one(self, tmp_path):
        p = tmp_path / "w.pgm"
        write_pgm(np.ones((2, 2)), p)
        np.testing.assert_array_equal(load_pgm(p), np.ones((2, 2)))

    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((16, 16))
        p = tmp_path / "r.pgm"
        write_pgm(img, p)
        back = load_pgm(p)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_quantized_image_roundtrips_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.rint(rng.random((8, 8)) * 255.0) / 255.0
        p = tmp_path / "q.pgm"
        write_pgm(img, p)
        np.testing.assert_array_equal(load_pgm(p), img)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(DataError, match="P5"):
            load_pgm(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError, match="maxval"):
            load_pgm(p)

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\nab 2\n255\n",
            b"P5\n-2 -3\n255\n",
            b"P5\n0 4\n255\n",
            pytest.param(b"P5\n2 " + b"9" * 5000 + b"\n255\n", id="more-digits-than-int-converts"),
        ],
    )
    def test_bad_extent_rejected(self, tmp_path, header):
        # pixel bytes to spare, so only the header check can reject
        p = tmp_path / "bad.pgm"
        p.write_bytes(header + bytes(8))
        with pytest.raises(DataError, match="width and height"):
            load_pgm(p)

    @pytest.mark.parametrize(
        "image",
        [
            pytest.param(np.zeros((0, 5)), id="no-rows"),
            pytest.param(np.zeros((5, 0)), id="no-columns"),
            pytest.param(np.array([[0.5, np.nan]]), id="nan"),
            pytest.param(np.array([[np.inf, 0.5]]), id="inf"),
            pytest.param(np.array([[-np.inf]]), id="minus-inf"),
            pytest.param(np.array([["a"]]), id="text"),
        ],
    )
    def test_image_it_cannot_write_faithfully_rejected(self, tmp_path, image):
        out = tmp_path / "x.pgm"
        with pytest.raises(DataError, match="image"):
            write_pgm(image, out)
        assert not out.exists()

    def test_truncated_pixels_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(DataError, match="pixel"):
            load_pgm(p)


class TestResizeBilinear:
    def test_identity_at_same_size(self):
        rng = np.random.default_rng(2)
        img = rng.random((7, 5))
        np.testing.assert_array_equal(resize_bilinear(img, (7, 5)), img)

    def test_constant_stays_constant(self):
        img = np.full((3, 3), 0.4)
        np.testing.assert_allclose(resize_bilinear(img, (9, 13)), 0.4, rtol=0, atol=1e-15)

    def test_2x2_to_4x4_hand_computed(self):
        img = np.array([[0.0, 3.0], [6.0, 9.0]])
        expect = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [2.0, 3.0, 4.0, 5.0],
                [4.0, 5.0, 6.0, 7.0],
                [6.0, 7.0, 8.0, 9.0],
            ]
        )
        np.testing.assert_allclose(resize_bilinear(img, (4, 4)), expect, rtol=1e-14)

    def test_4x4_to_2x2_hand_computed(self):
        img = np.arange(16.0).reshape(4, 4)
        # corner-aligned sampling lands exactly on the corner pixels
        expect = np.array([[img[0, 0], img[0, 3]], [img[3, 0], img[3, 3]]])
        np.testing.assert_array_equal(resize_bilinear(img, (2, 2)), expect)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(5, 64, seed=42)
        b = generate_synthetic(5, 64, seed=42)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.labels == sb.labels and sa.boxes == sb.boxes
        c = generate_synthetic(5, 64, seed=43)
        assert any(not np.array_equal(sa.image, sc.image) for sa, sc in zip(a, c))

    def test_boxes_inside_declared_quadrant(self):
        for s in generate_synthetic(200, 64, seed=1):
            for cls, x, y, w, h in s.boxes:
                # the box must sit entirely within one 32x32 quadrant
                assert (x // 32) == ((x + w - 1) // 32)
                assert (y // 32) == ((y + h - 1) // 32)

    def test_class_prior_near_035(self):
        samples = generate_synthetic(2000, 64, seed=2, class_prior=0.35)
        counts = np.zeros(4)
        for s in samples:
            for c in s.labels:
                counts[c] += 1
        freq = counts / 2000
        assert np.all(np.abs(freq - 0.35) <= 0.05), freq

    def test_labels_match_boxes(self):
        for s in generate_synthetic(50, 64, seed=3):
            assert sorted(s.labels) == sorted(b[0] for b in s.boxes)

    def test_dataset_files_on_disk(self, tmp_path):
        train_m, test_m = synth_dataset(tmp_path, n_train=4, n_test=2, image_size=32, seed=5)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len([f for f in files if f.endswith(".pgm")]) == 6
        entries = load_manifest(train_m)
        assert len(entries) == 4
        img = load_pgm(tmp_path / entries[0].path)
        assert img.shape == (32, 32)

    def test_dataset_bytes_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth_dataset(d1, 3, 1, 32, seed=9)
        synth_dataset(d2, 3, 1, 32, seed=9)
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()


class TestCheckpoint:
    def _sample(self):
        rng = np.random.default_rng(4)
        return Checkpoint(
            config={"input_size": "64", "dtype": "f32", "down_channels": "16, 16"},
            tensors={
                "stem.conv1": rng.standard_normal((4, 1, 7, 7)).astype(np.float32),
                "fc.w": rng.standard_normal((8, 2, 8, 4)),
                "adam.t": np.array(3.0),
            },
            rng_state=rng_state_token(rng),
        )

    def test_roundtrip_tensors_bitwise(self, tmp_path):
        ck = self._sample()
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, ck)
        back = load_checkpoint(p)
        assert back.config == ck.config
        assert back.rng_state == ck.rng_state
        assert list(back.tensors) == list(ck.tensors)
        for name in ck.tensors:
            assert back.tensors[name].dtype == ck.tensors[name].dtype
            np.testing.assert_array_equal(back.tensors[name], ck.tensors[name])

    def test_write_failing_midway_keeps_previous_checkpoint(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self._sample())
        before = p.read_bytes()
        real_open = open

        class HalfWritten:
            # writes half of the first buffer it is given, then fails
            def __init__(self, *args):
                self.f = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, buf):
                self.f.write(buf[: len(buf) // 2])
                raise OSError("no space left on device")

        with mock.patch("capsroute.data.open", HalfWritten, create=True), pytest.raises(OSError, match="no space"):
            save_checkpoint(p, Checkpoint(config={"dtype": "f64"}, tensors={"w": np.ones(3)}))
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_write_leaves_no_temporary_file(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self._sample())
        save_checkpoint(p, self._sample())
        assert list(tmp_path.iterdir()) == [p]

    def test_save_load_save_byte_identical(self, tmp_path):
        ck = self._sample()
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(p1, ck)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupted_magic_rejected(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self._sample())
        data = bytearray(p.read_bytes())
        data[0:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, self._sample())
        data = p.read_bytes()
        p.write_bytes(data[:-10])
        with pytest.raises(DataError):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "good, bad",
        [
            ("tensor b f64 2 32 16", "tensor b f64 2 -32 16"),  # would read tensor a's last 32 bytes
            ("tensor b f64 2 32 16", "tensor b f64 2 32"),
            ("tensor b f64 2 32 16", "tensor b f64 2 3x 16"),
            ("tensor b f64 2 32 16", "tensor b f64 2 40 16"),
            ("tensor b f64 2 32 16", "tensor b f64 2 32 -16"),
            ("data 48", "data -48"),
            ("tensor b f64 2 32 16", "tensor a f64 2 32 16"),  # a second `a` would read b's bytes
            pytest.param("tensor a f64 4 0 32", "config k=1\nconfig k=2\ntensor a f64 4 0 32", id="config-twice"),
            pytest.param("tensor a f64 4 0 32", "rng 1\nrng 2\ntensor a f64 4 0 32", id="rng-twice"),
            # 2**64 values would wrap to 0 in int64 and pass the byte check
            pytest.param("tensor a f64 4 0 32", "tensor a f32 4294967296x4294967296 0 0", id="extent-wraps-to-0"),
            pytest.param("tensor a f64 4 0 32", "tensor a f64 9223372036854775807x2 0 32", id="extent-wraps-negative"),
            pytest.param("tensor a f64 4 0 32", "tensor a f64 0x9223372036854775807 0 0", id="empty-extent-too-big"),
            # `int` would accept these; the directory takes plain digits only
            pytest.param("tensor a f64 4 0 32", "tensor a f64 +4 0 32", id="plus-sign"),
            pytest.param("tensor a f64 4 0 32", "tensor a f64 4 0 3_2", id="underscore"),
            pytest.param("tensor a f64 4 0 32", "tensor a f64 4 -0 32", id="minus-zero"),
            # more digits than `int` converts
            pytest.param("CAPS 1", "CAPS " + "1" * 5000, id="version-digits"),
            pytest.param("data 48", "data " + "4" * 5000, id="data-digits"),
        ],
    )
    def test_hostile_directory_rejected(self, tmp_path, good, bad):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, Checkpoint(tensors={"a": np.arange(4.0), "b": np.array([5.0, 6.0])}))
        raw = p.read_bytes()
        assert good.encode() in raw
        p.write_bytes(raw.replace(good.encode(), bad.encode()))
        with pytest.raises(DataError):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "ckpt",
        [
            pytest.param(Checkpoint(config={"a=b": "c"}), id="key-with-equals"),  # would load as a -> b=c
            pytest.param(Checkpoint(config={"v": "1\ntensor x f32 1 0 4"}), id="value-line-break"),
            pytest.param(Checkpoint(rng_state="{}\nconfig k=1"), id="rng-line-break"),
            pytest.param(Checkpoint(config={"v": "\u00e9"}), id="non-ascii"),
        ],
    )
    def test_field_that_reads_back_differently_rejected_on_save(self, tmp_path, ckpt):
        with pytest.raises(DataError, match="cannot be read back"):
            save_checkpoint(tmp_path / "c.ckpt", ckpt)
        assert not any(tmp_path.iterdir())

    def test_header_version_is_the_format_s(self, tmp_path):
        # the version is the format's, not a field a caller sets: a set one
        # could carry a line break into the header
        with pytest.raises(TypeError):
            Checkpoint(config={"a": "b"}, version="1\nconfig injected=yes")
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, Checkpoint(config={"a": "b"}))
        assert p.read_bytes().startswith(b"CAPS 1\nconfig a=b\n")

    def test_value_count_reported_without_wrap(self, tmp_path):
        p = tmp_path / "c.ckpt"
        save_checkpoint(p, Checkpoint(tensors={"a": np.arange(4.0)}))
        p.write_bytes(p.read_bytes().replace(b"tensor a f64 4 0 32", b"tensor a f64 9223372036854775807x2 0 32"))
        with pytest.raises(DataError, match="expected 18446744073709551614 values"):
            load_checkpoint(p)

    def test_rng_token_roundtrip(self):
        rng = np.random.default_rng(123)
        rng.random(10)
        token = rng_state_token(rng)
        clone = rng_from_token(token)
        np.testing.assert_array_equal(rng.random(5), clone.random(5))
