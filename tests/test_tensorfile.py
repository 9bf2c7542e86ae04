"""Tensor file round-trips, byte-offset error reporting, manifest checks."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantred.quantizers import MAX_BITS
from quantred.tensorfile import (
    MAGIC,
    LayerManifestEntry,
    ManifestError,
    TensorFormatError,
    load_manifest,
    read_tensor,
    write_tensor,
)


def _write(path, array):
    write_tensor(path, array)
    return path


class TestRoundTrip:
    def test_float32_2d(self, tmp_path):
        a = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
        t = read_tensor(_write(tmp_path / "a.npy", a))
        assert t.shape == (3, 4)
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t, a)

    def test_int32_and_uint8(self, tmp_path):
        for arr in (
            np.array([[1, -2], [3, 4]], dtype=np.int32),
            np.array([[0, 255], [7, 9]], dtype=np.uint8),
        ):
            t = read_tensor(_write(tmp_path / "b.npy", arr))
            np.testing.assert_array_equal(t, arr)
            assert t.dtype == arr.dtype

    def test_data_is_read_only(self, tmp_path):
        t = read_tensor(_write(tmp_path / "c.npy", np.zeros(3, dtype=np.float32)))
        with pytest.raises(ValueError):
            t[0] = 1.0

    def test_payload_copied_once(self, tmp_path):
        # the array is a view of the bytes read, so reading a 2 MiB tensor
        # allocates about one payload, not a slice and a copy besides
        a = np.random.default_rng(0).normal(0, 1, (512, 1024)).astype(np.float32)
        path = _write(tmp_path / "big.npy", a)
        tracemalloc.start()
        try:
            t = read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(t, a)
        assert peak < 1.5 * a.nbytes

    def test_numpy_reads_our_files(self, tmp_path):
        a = np.linspace(-1, 1, 10, dtype=np.float32).reshape(2, 5)
        p = _write(tmp_path / "d.npy", a)
        np.testing.assert_array_equal(np.load(p), a)

    def test_we_read_numpy_files(self, tmp_path):
        a = np.linspace(-3, 3, 24, dtype=np.float32).reshape(4, 6)
        p = tmp_path / "e.npy"
        np.save(p, a)
        np.testing.assert_array_equal(read_tensor(p), a)

    def test_non_native_layout_written_little_endian_row_major(self, tmp_path):
        a = np.arange(6, dtype=">f4").reshape(2, 3).T
        p = _write(tmp_path / "be.npy", a)
        t = read_tensor(p)
        assert t.dtype.str == "<f4"
        np.testing.assert_array_equal(t, a)
        np.testing.assert_array_equal(np.load(p), a)

    def test_payload_starts_on_64_byte_boundary(self, tmp_path):
        p = _write(tmp_path / "f.npy", np.zeros((2, 2), dtype=np.float32))
        raw = p.read_bytes()
        (hlen,) = struct.unpack_from("<H", raw, 8)
        assert (10 + hlen) % 64 == 0

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple),
        dtype=st.sampled_from(["float32", "int32", "uint8"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        if dtype == "float32":
            arr = rng.normal(size=shape).astype(np.float32)
        elif dtype == "int32":
            arr = rng.integers(-(2**31), 2**31 - 1, size=shape, dtype=np.int64).astype(np.int32)
        else:
            arr = rng.integers(0, 256, size=shape).astype(np.uint8)
        p = tmp_path_factory.mktemp("rt") / "t.npy"
        t = read_tensor(_write(p, arr))
        assert t.shape == tuple(shape)
        assert t.dtype == dtype
        np.testing.assert_array_equal(t, arr)


class TestFormatErrors:
    def _valid_bytes(self, tmp_path):
        p = _write(tmp_path / "v.npy", np.arange(6, dtype=np.float32))
        return bytearray(p.read_bytes())

    def test_bad_magic_offset_0(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[0] = 0x00
        p = tmp_path / "bad.npy"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 0
        assert "magic" in str(e.value)

    def test_bad_version_offset_6(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        raw[6] = 9
        p = tmp_path / "bad.npy"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 6
        assert "version" in str(e.value)

    def test_unsupported_dtype_offset_10(self, tmp_path):
        p = tmp_path / "f64.npy"
        np.save(p, np.zeros(4, dtype=np.float64))
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 10
        assert "dtype" in str(e.value)

    def test_fortran_order_rejected(self, tmp_path):
        p = tmp_path / "fort.npy"
        np.save(p, np.asfortranarray(np.zeros((3, 2), dtype=np.float32)))
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 10

    def test_malformed_header_dict(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        (hlen,) = struct.unpack_from("<H", bytes(raw), 8)
        raw[10 : 10 + hlen] = b"{" + b" " * (hlen - 2) + b"\n"
        p = tmp_path / "bad.npy"
        p.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 10

    def test_truncated_payload_reports_end_offset(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        p = tmp_path / "short.npy"
        p.write_bytes(bytes(raw[:-4]))  # drop one float32
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert "expected 24 bytes, found 20" in str(e.value)
        assert e.value.offset == len(raw) - 4

    def test_trailing_bytes_rejected(self, tmp_path):
        raw = self._valid_bytes(tmp_path)
        p = tmp_path / "long.npy"
        p.write_bytes(bytes(raw) + b"\x00\x00")
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert "trailing" in str(e.value)
        assert e.value.offset == len(raw)

    def test_truncated_version_field(self, tmp_path):
        p = tmp_path / "tiny.npy"
        p.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TensorFormatError) as e:
            read_tensor(p)
        assert e.value.offset == 6

    @pytest.mark.parametrize("shape", [(2**32, 2**32), (2**63 - 1, 2)])
    def test_huge_header_shape_is_a_truncated_payload(self, tmp_path, shape):
        # the element count is a Python int: it neither wraps to a count the
        # empty payload matches nor to one it overshoots
        with pytest.raises(TensorFormatError, match="truncated payload") as e:
            read_tensor(_header_only(tmp_path / "huge.npy", shape))
        assert "found 0" in str(e.value)

    def test_huge_header_shape_fails_manifest_validation(self, tmp_path):
        layer = _layer_files(tmp_path, "l0")
        _header_only(tmp_path / layer["weight_path"], (2**32, 2**32))
        with pytest.raises(ManifestError, match=r"layers\[0\]: truncated payload"):
            load_manifest(_manifest(tmp_path, [layer]))

    def test_bool_dimension_is_a_malformed_shape(self, tmp_path):
        with pytest.raises(TensorFormatError, match="malformed shape") as e:
            read_tensor(_header_only(tmp_path / "bool.npy", (True, 3)))
        assert e.value.offset == 10

    def test_write_rejects_unsupported_dtype(self, tmp_path):
        p = tmp_path / "f64.npy"
        with pytest.raises(TensorFormatError, match="float64"):
            write_tensor(p, np.zeros(2, dtype=np.float64))
        assert not p.exists()


def _header_only(path, shape):
    # a float32 header declaring `shape`, with no payload after it
    header = "{'descr': '<f4', 'fortran_order': False, 'shape': %r, }\n" % (shape,)
    path.write_bytes(MAGIC + bytes([1, 0]) + struct.pack("<H", len(header)) + header.encode())
    return path


def _manifest(tmp_path, layers):
    doc = {"layers": layers}
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


def _layer_files(tmp_path, name, d_out=3, d_in=4, n=8, calib=None):
    w = np.arange(d_out * d_in, dtype=np.float32).reshape(d_out, d_in) / 10
    if calib is None:
        calib = np.linspace(0, 1, n * d_in, dtype=np.float32).reshape(n, d_in)
    _write(tmp_path / f"{name}_w.npy", w)
    _write(tmp_path / f"{name}_a.npy", calib)
    return {
        "layer_id": name,
        "weight_path": f"{name}_w.npy",
        "calib_path": f"{name}_a.npy",
        "act_quant": "uniform",
        "bits_w": 4,
        "bits_a": 4,
    }


class TestManifest:
    def test_valid_manifest_preserves_order(self, tmp_path):
        layers = [_layer_files(tmp_path, f"l{i}") for i in range(3)]
        entries = load_manifest(_manifest(tmp_path, layers))
        assert [e.layer_id for e in entries] == ["l0", "l1", "l2"]
        assert all(isinstance(e, LayerManifestEntry) for e in entries)
        assert entries[0].weight_path.is_file()

    def test_duplicate_layer_id(self, tmp_path):
        a = _layer_files(tmp_path, "dup")
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(_manifest(tmp_path, [a, dict(a)]))

    @pytest.mark.parametrize(
        "layer_id",
        ["", ".", "..", "a/b", "a\\b", "a,b", 'a"b', "a\nb", "a\rb", "a\0b", "../escaped,id"],
    )
    def test_unsafe_layer_id_rejected(self, tmp_path, layer_id):
        a = _layer_files(tmp_path, "l0")
        b = dict(_layer_files(tmp_path, "l1"), layer_id=layer_id)
        with pytest.raises(ManifestError, match=r"layers\[1\]\.layer_id"):
            load_manifest(_manifest(tmp_path, [a, b]))

    def test_dotted_layer_id_accepted(self, tmp_path):
        a = dict(_layer_files(tmp_path, "l0"), layer_id="blocks.0.attn-qkv_proj")
        assert load_manifest(_manifest(tmp_path, [a]))[0].layer_id == a["layer_id"]

    def test_unknown_act_family(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        a["act_quant"] = "log2"
        with pytest.raises(ManifestError, match="act_quant"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_bits_below_two(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        a["bits_w"] = 1
        with pytest.raises(ManifestError, match=">= 2"):
            load_manifest(_manifest(tmp_path, [a]))

    @pytest.mark.parametrize("field", ["bits_w", "bits_a"])
    def test_bits_above_max(self, tmp_path, field):
        a = _layer_files(tmp_path, "l0")
        a[field] = MAX_BITS + 1
        with pytest.raises(ManifestError, match=f"<= {MAX_BITS}"):
            load_manifest(_manifest(tmp_path, [a]))
        a[field] = MAX_BITS
        assert load_manifest(_manifest(tmp_path, [a]))[0].layer_id == "l0"

    def test_no_layers_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="no layers"):
            load_manifest(_manifest(tmp_path, []))

    @pytest.mark.parametrize(
        ("w_shape", "c_shape", "bad"),
        [((4, 0), (8, 0), "weight"), ((0, 3), (8, 3), "weight"), ((4, 3), (0, 3), "calibration")],
    )
    def test_zero_size_tensor_rejected(self, tmp_path, w_shape, c_shape, bad):
        a = _layer_files(tmp_path, "l0")
        _write(tmp_path / "l0_w.npy", np.zeros(w_shape, dtype=np.float32))
        _write(tmp_path / "l0_a.npy", np.zeros(c_shape, dtype=np.float32))
        shape = w_shape if bad == "weight" else c_shape
        with pytest.raises(ManifestError) as e:
            load_manifest(_manifest(tmp_path, [a]))
        assert f"'l0'): {bad} is empty, shape {shape}" in str(e.value)

    def test_missing_file(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        a["weight_path"] = "nope.npy"
        with pytest.raises(ManifestError, match="missing tensor file"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_missing_field(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        del a["bits_a"]
        with pytest.raises(ManifestError, match="missing field"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_non_float32_rejected(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        write_tensor(tmp_path / "l0_w.npy", np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(ManifestError, match="float32"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_one_dim_weight_rejected(self, tmp_path):
        a = _layer_files(tmp_path, "l0")
        _write(tmp_path / "l0_w.npy", np.zeros(4, dtype=np.float32))
        with pytest.raises(ManifestError, match="2-D"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_log_sqrt2_requires_nonnegative_calib(self, tmp_path):
        calib = np.linspace(-0.5, 1, 32, dtype=np.float32).reshape(8, 4)
        a = _layer_files(tmp_path, "l0", calib=calib)
        a["act_quant"] = "log_sqrt2"
        with pytest.raises(ManifestError, match="nonnegative"):
            load_manifest(_manifest(tmp_path, [a]))

    def test_not_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("not json {")
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(p)

    def test_layers_not_a_list(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"layers": {}}))
        with pytest.raises(ManifestError, match="layers"):
            load_manifest(p)

    @settings(max_examples=25, deadline=None)
    @given(d_in_w=st.integers(1, 6), d_in_a=st.integers(1, 6))
    def test_input_width_mismatch_rejected(self, tmp_path_factory, d_in_w, d_in_a):
        tmp_path = tmp_path_factory.mktemp("mm")
        a = _layer_files(
            tmp_path,
            "l0",
            d_in=d_in_w,
            calib=np.zeros((5, d_in_a), dtype=np.float32),
        )
        manifest = _manifest(tmp_path, [a])
        if d_in_w == d_in_a:
            assert load_manifest(manifest)[0].layer_id == "l0"
        else:
            with pytest.raises(ManifestError, match="D_in"):
                load_manifest(manifest)
