import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrecon.checkpoint import META_KEY, load_tensors, save_tensors
from evrecon.errors import ParseError


def spkt_bytes(*entries):
    """A version-1 container holding (name, dims, f64 payload) entries,
    written field by field so that headers can lie about their payload."""
    out = [b"SPKT", struct.pack("<II", 1, len(entries))]
    for name, dims, payload in entries:
        raw = name.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw, struct.pack("<I", len(dims)),
                struct.pack(f"<{len(dims)}Q", *dims), b"\x02", payload]
    return b"".join(out)


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


class TestCorruption:
    def test_impossible_dims_name_the_tensor(self, tmp_path):
        path = tmp_path / "bad.spkt"
        path.write_bytes(spkt_bytes(("w", (0, 2 ** 63), b"")))
        with pytest.raises(ParseError, match=r"bad.spkt.*'w'"):
            load_tensors(path)

    def test_repeated_name_is_rejected(self, tmp_path):
        path = tmp_path / "bad.spkt"
        one = np.ones(2).tobytes()
        path.write_bytes(spkt_bytes(("w", (2,), one), ("w", (2,), one)))
        with pytest.raises(ParseError, match=r"bad.spkt.*'w'"):
            load_tensors(path)

    # 49.5 and 305.0 both wrap to 49, the digit "1" they replace
    @pytest.mark.parametrize("value", [np.nan, 300.0, 305.0, 49.5, -1.0])
    def test_metadata_value_outside_a_byte_is_rejected(self, tmp_path, value):
        path = tmp_path / "bad.spkt"
        raw = np.frombuffer(b'{"k": 1}', dtype=np.uint8).astype(np.float32)
        raw[6] = value
        save_tensors(path, {META_KEY: raw})
        with pytest.raises(ParseError, match=f"bad.spkt.*'{META_KEY}'"):
            load_tensors(path)


@lru_cache(maxsize=None)
def good_container():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "good.spkt"
        save_tensors(path, {"w": np.arange(6.0).reshape(2, 3), "s": np.array(1.5),
                            "h": np.ones(3, dtype=np.float32)},
                     {"spec": {"k": [1, 2]}, "name": "τ"})
        return path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_any_overwritten_byte_or_cut_tail_is_a_parse_error_or_a_clean_load(data):
    raw = bytearray(good_container())
    if data.draw(st.booleans(), label="cut"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="end")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] = data.draw(st.integers(0, 255), label="byte")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.spkt"
        path.write_bytes(bytes(raw))
        try:
            tensors, _ = load_tensors(path)
        except ParseError as exc:
            assert str(path) in str(exc)
            return
    for arr in tensors.values():
        assert isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)
