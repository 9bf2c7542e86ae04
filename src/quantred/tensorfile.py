"""Tensor file I/O and the run manifest.

The on-disk tensor format is npy-compatible (magic string, format version
1.0, python-dict header, little-endian row-major payload) so calibration
data can be exported from any tensor ecosystem. Files are written by numpy's
npy writer; the reader is written here rather than delegated so that
malformed files are rejected with the byte offset of the problem.
"""

from __future__ import annotations

import ast
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import require_int
from .quantizers import FAMILIES, MAX_BITS

MAGIC = b"\x93NUMPY"

# dtype name -> struct descr accepted on disk
_DTYPES = {"float32": "<f4", "int32": "<i4", "uint8": "|u1"}

# a layer id names output files (<layer_id>_codes.npy) and fills CSV cells,
# so it may not leave the output directory or split a cell or row
_ID_FORBIDDEN = '/\\,"\n\r\0'


class TensorFormatError(Exception):
    """Malformed tensor file. `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ManifestError(Exception):
    """Manifest fails validation against the files it references."""


def read_tensor(path: str | Path) -> np.ndarray:
    """Read one tensor as a read-only float32, int32 or uint8 array.

    Raises TensorFormatError with a byte offset for a bad magic string,
    unsupported version, malformed header dict, unsupported dtype, or a
    payload shorter/longer than the header-declared element count.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 6 or raw[:6] != MAGIC:
        raise TensorFormatError("bad magic string", 0)
    if len(raw) < 8:
        raise TensorFormatError("truncated version field", 6)
    major, minor = raw[6], raw[7]
    if (major, minor) != (1, 0):
        raise TensorFormatError(f"unsupported format version {major}.{minor}", 6)
    if len(raw) < 10:
        raise TensorFormatError("truncated header length field", 8)
    (hlen,) = struct.unpack_from("<H", raw, 8)
    data_start = 10 + hlen
    if len(raw) < data_start:
        raise TensorFormatError("truncated header", 10)
    try:
        header = ast.literal_eval(raw[10:data_start].decode("latin1"))
    except (ValueError, SyntaxError) as exc:
        raise TensorFormatError(f"malformed header: {exc}", 10) from None
    if not isinstance(header, dict) or not {
        "descr",
        "fortran_order",
        "shape",
    } <= set(header):
        raise TensorFormatError("header missing required keys", 10)
    descr = header["descr"]
    if descr not in _DTYPES.values():
        raise TensorFormatError(f"unsupported dtype {descr!r}", 10)
    if header["fortran_order"] is not False:
        raise TensorFormatError("fortran order payloads are unsupported", 10)
    shape = header["shape"]
    if not isinstance(shape, tuple) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    ):
        raise TensorFormatError(f"malformed shape {shape!r}", 10)

    dtype = np.dtype(descr)
    # Python ints: a product of header dims must not wrap around
    expected = math.prod(shape) * dtype.itemsize
    found = len(raw) - data_start
    if found < expected:
        raise TensorFormatError(
            f"truncated payload: expected {expected} bytes, found {found}",
            len(raw),
        )
    if found > expected:
        raise TensorFormatError("trailing bytes after payload", data_start + expected)
    # a read-only view of the bytes read: the payload is copied once, by the read
    data = np.frombuffer(raw, dtype=dtype, count=math.prod(shape), offset=data_start)
    return data.reshape(shape)


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a float32, int32 or uint8 array bit-exactly; loads with any npy reader."""
    name = array.dtype.name
    if name not in _DTYPES:
        raise TensorFormatError(f"unsupported dtype {name!r}", 0)
    # np.asarray, not np.ascontiguousarray: the latter makes a 0-d array (1,)
    data = np.asarray(array, dtype=_DTYPES[name], order="C")
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, data, version=(1, 0), allow_pickle=False)


@dataclass(frozen=True)
class LayerManifestEntry:
    """One linear layer bound to its weight and calibration files."""

    layer_id: str
    weight_path: Path
    calib_path: Path
    act_quant: str
    bits_w: int
    bits_a: int


def load_manifest(path: str | Path) -> list[LayerManifestEntry]:
    """Load and cross-validate a JSON manifest.

    The manifest must list at least one layer. Checks per layer: the
    layer_id is unique and usable as a file-name prefix and CSV cell (not
    empty, "." or "..", and free of "/", "\\", ",", '"', NUL and line
    breaks),
    referenced files exist and parse, weights are 2-D float32
    (D_out x D_in), calibration activations are 2-D float32 (N x D_in)
    with matching D_in, neither tensor is empty, bit widths are integers
    in [2, MAX_BITS], the activation quantizer family is known, and a
    log_sqrt2 layer has nonnegative calibration data. Order is preserved.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ManifestError("manifest must be an object with a 'layers' array")
    if not doc["layers"]:
        raise ManifestError("manifest lists no layers")

    entries = []
    seen_ids: set[str] = set()
    for i, item in enumerate(doc["layers"]):
        if not isinstance(item, dict):
            raise ManifestError(f"layers[{i}] is not an object")

        def field(name, kind=object):
            if name not in item:
                raise ManifestError(f"layers[{i}] missing field {name!r}")
            value = item[name]
            if not isinstance(value, kind):
                raise ManifestError(
                    f"layers[{i}].{name} must be {kind.__name__}, got {value!r}"
                )
            return value

        layer_id = field("layer_id", str)
        if layer_id in ("", ".", "..") or any(c in _ID_FORBIDDEN for c in layer_id):
            raise ManifestError(
                f"layers[{i}].layer_id {layer_id!r} must be a nonempty name other "
                "than '.' and '..' without '/', '\\', ',', '\"', NUL or line breaks"
            )
        if layer_id in seen_ids:
            raise ManifestError(f"duplicate layer_id {layer_id!r}")
        seen_ids.add(layer_id)
        act_quant = field("act_quant", str)
        if act_quant not in FAMILIES:
            raise ManifestError(
                f"layers[{i}].act_quant must be one of {FAMILIES}, "
                f"got {act_quant!r}"
            )
        try:
            bits_w, bits_a = [require_int(f, field(f), 2, MAX_BITS) for f in ("bits_w", "bits_a")]
        except ValueError as exc:
            raise ManifestError(f"layers[{i}].{exc}") from None

        weight_path = path.parent / field("weight_path", str)
        calib_path = path.parent / field("calib_path", str)
        for p in (weight_path, calib_path):
            if not p.is_file():
                raise ManifestError(f"layers[{i}]: missing tensor file {p}")
        try:
            weight = read_tensor(weight_path)
            calib = read_tensor(calib_path)
        except TensorFormatError as exc:
            raise ManifestError(f"layers[{i}]: {exc}") from None

        if weight.dtype != np.float32 or calib.dtype != np.float32:
            raise ManifestError(f"layers[{i}]: tensors must be float32 on disk")
        for what, tensor in (("weight", weight), ("calibration", calib)):
            if tensor.ndim != 2:
                raise ManifestError(
                    f"layers[{i}]: {what} must be 2-D, got shape {tensor.shape}"
                )
            if tensor.size == 0:
                raise ManifestError(
                    f"layers[{i}] ({layer_id!r}): {what} is empty, shape {tensor.shape}"
                )
        if weight.shape[1] != calib.shape[1]:
            raise ManifestError(
                f"layers[{i}]: weight D_in {weight.shape[1]} != calibration "
                f"D_in {calib.shape[1]}"
            )
        if act_quant == "log_sqrt2" and float(calib.min()) < 0.0:
            raise ManifestError(
                f"layers[{i}]: log_sqrt2 activations require nonnegative "
                "calibration data"
            )
        entries.append(
            LayerManifestEntry(
                layer_id=layer_id,
                weight_path=weight_path,
                calib_path=calib_path,
                act_quant=act_quant,
                bits_w=bits_w,
                bits_a=bits_a,
            )
        )
    return entries
