"""File formats: every text the package writes, and every file it reads.

A data set is a directory of a JSON header (format, version, shapes and file
names) and one file per channel block.  Version 2, which the package
writes, stores each block as a ``.npy`` file of little-endian complex128 in
C order; version 1, whose blocks are CSV files, is still read, so older and
hand-made data sets keep working.  The header's version picks the reader.
A ``.npy`` block's own header is checked against the data set's before any
data is read.  Fusion message sets keep the CSV form: one CSV per complex
matrix, a line per row of interleaved real,imag entries at 17 significant
digits, which round-trips float64 bit-exactly.  A header may name only plain
files of its own directory.  Every file the package writes goes through
:func:`write_files`.
"""

from __future__ import annotations

import io
import json
import math
import os
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ProtocolError
from .fusion import ChannelMessage
from .measurement import MeasurementSet

_HEADER_NAME = "header.json"
_MEASUREMENT_FORMAT = "glrfusion-measurements"
# The version the package writes: .npy blocks.  Version 1 (CSV blocks) is read too.
_MEASUREMENT_VERSION = 2
_MESSAGE_FORMAT = "glrfusion-messages"
_MESSAGE_VERSION = 2
# What each entry of a message file's header holds, with its declared type.
_MESSAGE_ENTRY = {"factor": str, "coordinates": str, "n_modes": int, "n_snapshots": int}
_FLOAT_FMT = "{:.17g}"
# The one dtype a .npy block may hold, and the header reader of each .npy
# format version the package reads.
_NPY_DTYPE = np.dtype("<c16")
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def float_text(value) -> str:
    """A number as a float at 17 significant digits."""
    return _FLOAT_FMT.format(float(value))


def _cell(value) -> str:
    """A table cell: a string or an int as it is, any other value as a float."""
    return str(value) if isinstance(value, str | int) else float_text(value)


def _lines(rows, cell: Callable[[object], str]) -> str:
    """Rows of comma-separated cells, one a line, newline-terminated."""
    return "\n".join(",".join(map(cell, row)) for row in rows) + "\n"


def csv_text(header: str, rows) -> str:
    """CSV text under a header line: strings and ints as they are, other values as floats."""
    return _lines([[header], *rows], _cell)


def _format_block(block: np.ndarray) -> str:
    """A complex matrix's CSV text: each row's entries as interleaved real,imag."""
    interleaved = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
    return _lines(interleaved.tolist(), _FLOAT_FMT.format)


def _npy_bytes(block: np.ndarray) -> bytes:
    """A complex matrix's .npy file: format 1.0, little-endian complex128, C order."""
    out = io.BytesIO()
    np.lib.format.write_array(out, np.ascontiguousarray(block, dtype=_NPY_DTYPE),
                              version=(1, 0), allow_pickle=False)
    return out.getvalue()


def _plain(obj):
    """The JSON-ready Python value of a numpy value or a complex number."""
    if isinstance(obj, np.ndarray | np.generic):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The indented, newline-terminated JSON form of ``obj``, numpy values and
    complex numbers ([re, im]) included."""
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def _conforms(value, expected) -> bool:
    """Whether a JSON value has the declared type ``expected``.

    A declaration is a type, a tuple of alternatives, or [t] for a list whose
    elements are all t.  A bool is never an int or a number, and an int or a
    float must convert to a finite float: JSON parsers read NaN, and 1e400 as
    inf, and an integer of 400 digits overflows float64.
    """
    if isinstance(expected, tuple):
        return any(_conforms(value, t) for t in expected)
    if isinstance(expected, list):
        if not isinstance(value, list):
            return False
        kinds = expected[0] if isinstance(expected[0], tuple) else (expected[0],)
        # A list of numbers, as JSON parsers give them, is checked in one pass.
        if (all(kind in (int, float) for kind in kinds)
                and all(type(v) in kinds and _finite(v) for v in value)):
            return True
        return all(_conforms(v, expected[0]) for v in value)
    return (isinstance(value, expected) and (expected is bool or not isinstance(value, bool))
            and (expected not in (int, float) or _finite(value)))


def _finite(number) -> bool:
    """Whether an int or a float converts to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def require_type(value, expected, what: str) -> None:
    """Raise ConfigError naming ``what`` unless ``value`` has the declared type."""
    if not _conforms(value, expected):
        raise ConfigError(f"{what} has the wrong type or is not finite: {json.dumps(value)}")


def _require_keys(obj: dict, declared: Mapping[str, object],
                  missing: Callable[[str], Exception], what: Callable[[str], str]) -> None:
    """Raise ``missing(key)`` for a key of ``declared`` that ``obj`` lacks, and
    ConfigError naming ``what(key)`` for a value without its declared type."""
    for key, expected in declared.items():
        if key not in obj:
            raise missing(key)
        require_type(obj[key], expected, what(key))


def write_files(directory, files: Mapping[str, str | bytes]) -> Path:
    """Create ``directory`` and write each named text or bytes into it, in order.

    Each is written under a temporary name and renamed into place, so no
    reader sees a partial file; callers pass the file that lists the others
    (a header or a manifest) last.  Files and directories get the
    permissions ``open`` and ``mkdir`` give under the process umask.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        tmp = root / f"{name}.tmp"
        try:
            with open(tmp, "wb" if isinstance(text, bytes) else "w") as handle:
                handle.write(text)
            os.replace(tmp, root / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    return root


def _read_header(root: Path, format_name: str, versions: Sequence[int],
                 keys: Mapping[str, object]) -> dict:
    """Read ``root``/header.json: a JSON object of ``format_name`` at one of ``versions``.

    ``keys`` maps each key the header must hold to its declared type (see
    :func:`_conforms`).
    """
    header_path = root / _HEADER_NAME
    if not header_path.exists():
        raise ConfigError(f"no {_HEADER_NAME} in {root}")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{header_path} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{header_path} does not hold a JSON object")
    if header.get("format") != format_name:
        raise ConfigError(f"unrecognized format {header.get('format')!r} in {header_path}, "
                          f"expected {format_name!r}")
    found = header.get("version")
    if found not in versions or isinstance(found, bool):
        raise ConfigError(f"unsupported {format_name} version {found!r} in {header_path}, "
                          f"expected version {' or '.join(map(str, versions))}")
    _require_keys(header, keys,
                  lambda key: ConfigError(f"{header_path} is missing the key {key!r}"),
                  lambda key: f"{key!r} in {header_path}")
    return header


def _named_file(root: Path, name: str) -> Path:
    """The path of the file ``name`` that ``root``'s header names, which must
    be a plain file name in ``root``."""
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"{root / _HEADER_NAME} names {name!r}, "
                          f"which is not a file name in its directory")
    return root / name


def _read_block(root: Path, name: str, n_rows: int, n_cols: int) -> np.ndarray:
    """The complex n_rows x n_cols matrix of the CSV file ``name`` that
    ``root``'s header names, which must be a plain file name in ``root``.

    Blank lines are skipped.  Every field of the file goes through Python's
    float in one pass, so a number reads as it does in Python, bit for bit.
    Raises DimensionError naming the file for a wrong count of rows or of
    fields in a row, and ConfigError naming the file and the row for a field
    that is not a number (the rows are read one by one only to find it) or
    a file that is not UTF-8 text.
    """
    path = _named_file(root, name)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != n_rows:
        raise DimensionError(f"{path} has {len(lines)} rows, expected {n_rows}")
    for i, line in enumerate(lines):
        if line.count(",") + 1 != 2 * n_cols:
            raise DimensionError(f"{path} row {i} has {line.count(',') + 1} fields, "
                                 f"expected {2 * n_cols}")
    fields = ",".join(lines).split(",") if lines else []  # "".split(",") is [""]
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        for i, line in enumerate(lines):
            try:
                list(map(float, line.split(",")))
            except ValueError as exc:
                raise ConfigError(f"{path} row {i}: {exc}") from exc
        raise
    return values.reshape(n_rows, 2 * n_cols).view(np.complex128)


def _read_npy_block(root: Path, name: str, n_rows: int, n_cols: int) -> np.ndarray:
    """The complex n_rows x n_cols matrix of the .npy file ``name`` that
    ``root``'s header names, which must be a plain file name in ``root``.

    The file's own header is read and checked first: .npy format 1.0 or 2.0,
    entries of exactly little-endian complex128 (so no object array, and
    nothing is unpickled), C order, the shape (n_rows, n_cols) and exactly
    the bytes that shape needs.  Only then is the data read, so no file makes
    the reader allocate more than the data set's header declares.  Raises
    ConfigError naming the file for a file that is not such a .npy file, and
    DimensionError naming it for a wrong shape or byte count.
    """
    path = _named_file(root, name)
    with open(path, "rb") as handle:
        try:
            version = np.lib.format.read_magic(handle)
            read_header = _NPY_HEADERS.get(version)
            if read_header is not None:
                shape, fortran_order, dtype = read_header(handle)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a .npy file: {exc}") from exc
        if read_header is None:
            raise ConfigError(f"{path} is a .npy file of format version "
                              f"{'.'.join(map(str, version))}, expected 1.0 or 2.0")
        if dtype != _NPY_DTYPE:
            raise ConfigError(f"{path} holds {dtype.str!r} entries, "
                              f"expected {_NPY_DTYPE.str!r} (complex128)")
        if fortran_order:
            raise ConfigError(f"{path} is stored in Fortran order, expected C order")
        if shape != (n_rows, n_cols):
            raise DimensionError(f"{path} holds an array of shape {shape}, "
                                 f"expected {(n_rows, n_cols)}")
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        expected = n_rows * n_cols * _NPY_DTYPE.itemsize
        if size == expected:
            block = np.empty((n_rows, n_cols), dtype=_NPY_DTYPE)
            size = handle.readinto(block)
        if size != expected:
            raise DimensionError(f"{path} holds {size} bytes of data, expected {expected}")
    return block


# The block reader of each data-set version.
_BLOCK_READERS = {1: _read_block, 2: _read_npy_block}


def measurement_files(measurements: MeasurementSet) -> dict[str, str | bytes]:
    """The files of a measurement set: one .npy per channel block, then header.json."""
    files: dict[str, str | bytes] = {f"block_{i:02d}.npy": _npy_bytes(block)
                                     for i, block in enumerate(measurements.blocks)}
    files[_HEADER_NAME] = json_text({
        "format": _MEASUREMENT_FORMAT,
        "version": _MEASUREMENT_VERSION,
        "n_snapshots": measurements.n_snapshots,
        "channel_dims": list(measurements.channel_dims),
        "blocks": list(files),
    })
    return files


def save_measurements(measurements: MeasurementSet, directory) -> Path:
    """Write a measurement set as header.json + one .npy per channel block."""
    return write_files(directory, measurement_files(measurements))


def load_measurements(directory) -> MeasurementSet:
    """Read a measurement set written by :func:`save_measurements`, or one of
    version 1, whose blocks are CSV files.

    Raises ConfigError naming the file for a block with a non-finite entry.
    """
    root = Path(directory)
    header = _read_header(root, _MEASUREMENT_FORMAT, tuple(_BLOCK_READERS),
                          {"n_snapshots": int, "channel_dims": [int], "blocks": [str]})
    read = _BLOCK_READERS[header["version"]]
    m = header["n_snapshots"]
    dims = header["channel_dims"]
    if len(dims) != len(header["blocks"]):
        raise ConfigError(
            f"{root / _HEADER_NAME} lists {len(header['blocks'])} block files "
            f"for {len(dims)} channels"
        )
    blocks = []
    for dim, name in zip(dims, header["blocks"]):
        blocks.append(read(root, name, dim, m))
        if not np.isfinite(blocks[-1]).all():
            raise ConfigError(f"{root / name} holds a non-finite entry")
    return MeasurementSet(tuple(blocks))


def save_messages(messages: Sequence[ChannelMessage], directory) -> Path:
    """Serialize fusion messages with the same CSV-plus-header layout as data."""
    files: dict[str, str] = {}
    entries = []
    for idx, msg in enumerate(messages):
        entry = {"n_modes": msg.coordinates.shape[0], "n_snapshots": msg.n_snapshots}
        for field in ("factor", "coordinates"):
            entry[field] = f"message_{idx:02d}_{field}.csv"
            files[entry[field]] = _format_block(getattr(msg, field))
        entries.append(entry)
    files[_HEADER_NAME] = json_text(
        {"format": _MESSAGE_FORMAT, "version": _MESSAGE_VERSION, "messages": entries})
    return write_files(directory, files)


def load_messages(directory) -> list[ChannelMessage]:
    """Read fusion messages written by :func:`save_messages`."""
    root = Path(directory)
    header = _read_header(root, _MESSAGE_FORMAT, (_MESSAGE_VERSION,), {"messages": object})
    if not isinstance(header["messages"], list):
        raise ConfigError(f"'messages' in {root / _HEADER_NAME} is not a list: "
                          f"{header['messages']!r}")
    out = []
    for idx, entry in enumerate(header["messages"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"message entry {idx} in {root / _HEADER_NAME} is not an object: "
                              f"{entry!r}")
        _require_keys(entry, _MESSAGE_ENTRY,
                      lambda key: ProtocolError(f"channel message is missing field {key!r}"),
                      lambda key: f"message entry {idx} in {root / _HEADER_NAME}: {key!r}")
        j, m = entry["n_modes"], entry["n_snapshots"]
        out.append(ChannelMessage(factor=_read_block(root, entry["factor"], j, j),
                                  coordinates=_read_block(root, entry["coordinates"], j, m)))
    return out
