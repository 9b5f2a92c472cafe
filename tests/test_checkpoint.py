import numpy as np
import pytest

from evrecon.checkpoint import load_tensors, save_tensors
from evrecon.errors import ParseError


class TestRoundtrip:
    def test_tensors_and_meta(self, tmp_path):
        rng = np.random.default_rng(61)
        tensors = {
            "w": rng.standard_normal((3, 4, 5)),
            "b": rng.standard_normal(7),
            "scalar": np.array(2.5),
        }
        meta = {"kind": "test", "nested": {"a": [1, 2, 3]}}
        path = tmp_path / "ck.spkt"
        save_tensors(path, tensors, meta)
        loaded, got_meta = load_tensors(path)
        assert got_meta == meta
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float64

    def test_empty_meta(self, tmp_path):
        path = tmp_path / "ck.spkt"
        save_tensors(path, {"x": np.ones(2)}, {})
        _, meta = load_tensors(path)
        assert meta == {}

    def test_f32_tensors_preserved(self, tmp_path):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "ck.spkt"
        save_tensors(path, {"x": x}, {})
        loaded, _ = load_tensors(path)
        np.testing.assert_array_equal(loaded["x"], x.astype(np.float64))

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "ck.spkt"
        save_tensors(path, {"layer/τ": np.zeros(1)}, {})
        loaded, _ = load_tensors(path)
        assert "layer/τ" in loaded


class TestFormat:
    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "ck.spkt"
        save_tensors(path, {}, {})
        assert path.read_bytes()[:4] == b"SPKT"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.spkt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_tensors(path)

    def test_truncated_file_rejected(self, tmp_path):
        good = tmp_path / "good.spkt"
        save_tensors(good, {"x": np.ones((4, 4))}, {})
        data = good.read_bytes()
        bad = tmp_path / "trunc.spkt"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError):
            load_tensors(bad)

    def test_unknown_version_rejected(self, tmp_path):
        good = tmp_path / "good.spkt"
        save_tensors(good, {}, {})
        data = bytearray(good.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        bad = tmp_path / "v99.spkt"
        bad.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_tensors(bad)

    def test_every_truncation_is_a_parse_error(self, tmp_path):
        good = tmp_path / "good.spkt"
        save_tensors(good, {"w": np.ones((2, 3)), "s": np.array(1.5)}, {"k": [1]})
        data = good.read_bytes()
        cut = tmp_path / "cut.spkt"
        for end in range(len(data) + 1):
            cut.write_bytes(data[:end])
            try:
                tensors, meta = load_tensors(cut)
            except ParseError:
                continue
            assert end == len(data) and meta == {"k": [1]}
            np.testing.assert_array_equal(tensors["w"], np.ones((2, 3)))

    def test_truncated_header_names_the_file(self, tmp_path):
        good = tmp_path / "good.spkt"
        save_tensors(good, {"x": np.ones(2)}, {})
        cut = tmp_path / "cut.spkt"
        cut.write_bytes(good.read_bytes()[:6])
        with pytest.raises(ParseError, match="cut.spkt.*header"):
            load_tensors(cut)
