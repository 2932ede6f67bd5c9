"""The file formats: pinned bytes, headers that name files outside their
directory, and the checks of each data-set block reader."""

from __future__ import annotations

import json
import math
import re
import shutil
import struct

import numpy as np
import pytest

from glrfusion import (
    ChannelMessage,
    ConfigError,
    DimensionError,
    MeasurementSet,
    load_measurements,
    save_measurements,
)
from glrfusion import formats
from glrfusion.formats import load_messages, save_messages
from conftest import BAD_NPY_BLOCKS, save_csv_measurements

# Entries that need all 17 significant digits, a subnormal-scale and a huge one, and -0.
BLOCKS = (np.array([[1 / 3, -2e-300j], [0.1 + 1j, -0.0]]), np.array([[1e300, -1 / 7]]))
FACTOR = np.array([[1 / 3, 0.5j], [0, -2.0]])
COORDINATES = np.array([[-2e-300, 1 / 3, 0.1j], [2.5, 0, -1e-5]])


def npy(shape, *values) -> bytes:
    """A .npy file of format 1.0 holding a C-order little-endian complex128
    array: its header, padded with spaces to 128 bytes, then the interleaved
    real and imaginary parts."""
    header = f"{{'descr': '<c16', 'fortran_order': False, 'shape': {shape}, }}"
    return (b"\x93NUMPY\x01\x00v\x00" + header.ljust(117).encode() + b"\n"
            + struct.pack(f"<{len(values)}d", *values))


MEASUREMENT_FILES = {
    "block_00.npy": npy((2, 2), 1 / 3, 0.0, -0.0, -2e-300, 0.1, 1.0, -0.0, 0.0),
    "block_01.npy": npy((1, 2), 1e300, 0.0, -1 / 7, 0.0),
    "header.json": b'{\n  "format": "glrfusion-measurements",\n  "version": 2,\n'
                   b'  "n_snapshots": 2,\n  "channel_dims": [\n    2,\n    1\n  ],\n'
                   b'  "blocks": [\n    "block_00.npy",\n    "block_01.npy"\n  ]\n}\n',
}

# The same data set in the CSV form of version 1, which older and hand-made data sets have.
CSV_MEASUREMENT_FILES = {
    "block_00.csv": "0.33333333333333331,0,-0,-2.0000000000000001e-300\n"
                    "0.10000000000000001,1,-0,0\n",
    "block_01.csv": "1.0000000000000001e+300,0,-0.14285714285714285,0\n",
    "header.json": '{\n  "format": "glrfusion-measurements",\n  "version": 1,\n'
                   '  "n_snapshots": 2,\n  "channel_dims": [\n    2,\n    1\n  ],\n'
                   '  "blocks": [\n    "block_00.csv",\n    "block_01.csv"\n  ]\n}\n',
}

MESSAGE_FILES = {
    "message_00_factor.csv": "0.33333333333333331,0,0,0.5\n0,0,-2,0\n",
    "message_00_coordinates.csv": "-2.0000000000000001e-300,0,0.33333333333333331,0,0,"
                                  "0.10000000000000001\n2.5,0,0,0,-1.0000000000000001e-05,0\n",
    "header.json": '{\n  "format": "glrfusion-messages",\n  "version": 2,\n  "messages": [\n'
                   '    {\n      "n_modes": 2,\n      "n_snapshots": 3,\n'
                   '      "factor": "message_00_factor.csv",\n'
                   '      "coordinates": "message_00_coordinates.csv"\n    }\n  ]\n}\n',
}


def files_in(root) -> dict[str, str]:
    return {path.name: path.read_text() for path in root.iterdir()}


def write_csv_set(directory):
    """The hand-made CSV data set of CSV_MEASUREMENT_FILES in ``directory``."""
    directory.mkdir()
    for name, text in CSV_MEASUREMENT_FILES.items():
        (directory / name).write_text(text)
    return directory


def test_measurement_set_bytes_are_pinned(tmp_path):
    root = save_measurements(MeasurementSet(BLOCKS), tmp_path / "d")
    assert {path.name: path.read_bytes() for path in root.iterdir()} == MEASUREMENT_FILES
    for loaded, block in zip(load_measurements(root).blocks, BLOCKS):
        assert loaded.tobytes() == block.astype(complex).tobytes()  # -0 included


def test_csv_measurement_set_reads_bit_exactly(tmp_path):
    root = write_csv_set(tmp_path / "d")
    for loaded, block in zip(load_measurements(root).blocks, BLOCKS):
        assert loaded.tobytes() == block.astype(complex).tobytes()  # -0 included
    assert files_in(save_csv_measurements(MeasurementSet(BLOCKS), tmp_path / "c")) == \
        CSV_MEASUREMENT_FILES


def test_message_set_bytes_are_pinned(tmp_path):
    root = save_messages([ChannelMessage(factor=FACTOR, coordinates=COORDINATES)], tmp_path / "m")
    assert files_in(root) == MESSAGE_FILES
    (loaded,) = load_messages(root)
    np.testing.assert_array_equal(loaded.factor, FACTOR)
    np.testing.assert_array_equal(loaded.coordinates, COORDINATES)


# The CSV file a test edits or renames in a header: the first block of a
# hand-made CSV data set, or a message's field.
KINDS = ["block", "factor", "coordinates"]


def save(kind: str, directory):
    """A data set or message set holding the file of ``kind``, and its loader:
    "npy" is the first block of a data set that save_measurements wrote."""
    if kind == "npy":
        return save_measurements(MeasurementSet(BLOCKS), directory), load_measurements
    if kind == "block":
        return write_csv_set(directory), load_measurements
    message = ChannelMessage(factor=FACTOR, coordinates=COORDINATES)
    return save_messages([message], directory), load_messages


def rename_in_header(root, kind: str, name: str) -> str:
    """Point the header's entry for the file of ``kind`` at ``name``; returns the name it held."""
    header = json.loads((root / "header.json").read_text())
    data_set = kind in ("block", "npy")
    entry, key = (header["blocks"], 0) if data_set else (header["messages"][0], kind)
    old, entry[key] = entry[key], name
    (root / "header.json").write_text(json.dumps(header))
    return old


@pytest.mark.parametrize("kind", KINDS + ["npy"])
def test_header_naming_a_file_of_the_parent_directory_is_rejected(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    old = rename_in_header(root, kind, "../x.csv")
    shutil.copy(root / old, tmp_path / "x.csv")  # a file the loader could parse
    with pytest.raises(ConfigError, match=r"header\.json names '\.\./x\.csv'"):
        load(root)


@pytest.mark.parametrize("kind", KINDS + ["npy"])
def test_header_naming_an_absolute_path_is_rejected_without_echoing_it(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    secret = tmp_path / "secret.txt"
    secret.write_text("hunter2\n")
    rename_in_header(root, kind, str(secret))
    with pytest.raises(ConfigError, match=r"header\.json names") as raised:
        load(root)
    assert "hunter2" not in str(raised.value)


@pytest.mark.parametrize("name", ["", ".", "..", "sub/x.csv", "x.csv/"])
def test_header_names_only_plain_file_names(tmp_path, name):
    root, load = save("block", tmp_path / "d")
    (root / "sub").mkdir()
    shutil.copy(root / rename_in_header(root, "block", name), root / "sub" / "x.csv")
    with pytest.raises(ConfigError, match="not a file name in its directory"):
        load(root)


@pytest.mark.parametrize("kind", ["block", "factor"], ids=["measurements", "messages"])
def test_header_that_is_not_json_names_the_header(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    (root / "header.json").write_text('{"format": ')
    with pytest.raises(ConfigError, match=r"header\.json is not valid JSON"):
        load(root)


@pytest.mark.parametrize("kind", ["block", "factor"], ids=["measurements", "messages"])
def test_header_that_is_not_utf8_names_the_header(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    (root / "header.json").write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match=r"header\.json is not valid JSON: 'utf-8' codec"):
        load(root)


def named_file(root, kind: str):
    """The path of the file of ``kind`` that the header names."""
    header = json.loads((root / "header.json").read_text())
    data_set = kind in ("block", "npy")
    return root / (header["blocks"][0] if data_set else header["messages"][0][kind])


@pytest.mark.parametrize("kind", KINDS)
def test_a_field_that_is_not_a_number_names_the_file_and_the_row(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    path = named_file(root, kind)
    first, last = path.read_text().splitlines()
    path.write_text(f"{first}\nabc,{last.split(',', 1)[1]}\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} row 1: could not convert string to float: 'abc'")):
        load(root)


@pytest.mark.parametrize("kind", KINDS)
def test_wrong_counts_of_rows_and_fields_name_the_file(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    path = named_file(root, kind)
    first, last = path.read_text().splitlines()
    path.write_text(f"{first}\n")
    with pytest.raises(DimensionError, match=re.escape(f"{path} has 1 rows, expected 2")):
        load(root)
    fields = first.split(",")
    path.write_text(f"{','.join(fields[:-1])}\n{last}\n")
    with pytest.raises(DimensionError, match=re.escape(
            f"{path} row 0 has {len(fields) - 1} fields, expected {len(fields)}")):
        load(root)


@pytest.mark.parametrize("kind", KINDS)
def test_a_file_that_is_not_utf8_is_named(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    path = named_file(root, kind)
    path.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(ConfigError, match=re.escape(f"{path} is not UTF-8 text")):
        load(root)


def test_extreme_values_round_trip_bit_exactly(rng, tmp_path):
    # Signed zeros, the smallest subnormal, the largest finite values and
    # random 17-digit values: one parse of the file gives every bit back.
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308])
    randoms = rng.standard_normal(58) * 10.0 ** rng.integers(-300, 300, 58)
    # The same holds for the CSV form of version 1.
    block = np.concatenate([extremes, randoms]).view(np.complex128).reshape(4, 8)
    for save_set in (save_measurements, save_csv_measurements):
        (loaded,) = load_measurements(save_set(MeasurementSet((block,)),
                                               tmp_path / save_set.__name__)).blocks
        assert loaded.view(np.float64).tobytes() == block.view(np.float64).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_a_field_that_is_not_a_number_in_the_last_row_names_that_row(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    path = named_file(root, kind)
    first, last = path.read_text().splitlines()
    path.write_text(f"{first}\n{last.rsplit(',', 1)[0]},1.5x\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} row 1: could not convert string to float: '1.5x'")):
        load(root)


@pytest.mark.parametrize("kind", KINDS)
def test_blank_lines_are_skipped(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    path = named_file(root, kind)
    first, last = path.read_text().splitlines()
    path.write_text(f"\n{first}\n  \n\n{last}\n\n")
    loaded = load(root)
    arrays = loaded.blocks[:1] if kind == "block" else (loaded[0].factor, loaded[0].coordinates)
    for got, saved in zip(arrays, BLOCKS[:1] if kind == "block" else (FACTOR, COORDINATES)):
        np.testing.assert_array_equal(got, saved)


@pytest.mark.parametrize("j, m, message", [
    (0, 3, "message coordinates are empty: (J, M) = (0, 3)"),
    (2, 0, "message_00_coordinates.csv has 0 rows, expected 2"),
], ids=["zero-rows", "zero-columns"])
def test_empty_message_blocks_keep_their_errors(tmp_path, j, m, message):
    # A message of J = 0 modes has empty files and fails on its empty
    # coordinates; one of M = 0 snapshots has no row to hold J of them.
    root, load = save("coordinates", tmp_path / "d")
    header = json.loads((root / "header.json").read_text())
    entry = header["messages"][0]
    entry["n_modes"], entry["n_snapshots"] = j, m
    (root / "header.json").write_text(json.dumps(header))
    for field in ["factor", "coordinates"] if j == 0 else ["coordinates"]:
        (root / entry[field]).write_text("")
    with pytest.raises(DimensionError, match=re.escape(message)):
        load(root)


@pytest.mark.parametrize("case", BAD_NPY_BLOCKS)
def test_a_bad_npy_block_is_refused_naming_the_file(tmp_path, case):
    # Every check runs on the file's own header before its data is read: a
    # header that declares 2**80 entries raises DimensionError, not MemoryError.
    rewrite, error, pattern = BAD_NPY_BLOCKS[case]
    root, load = save("npy", tmp_path / "d")
    path = named_file(root, "npy")
    rewrite(path, BLOCKS[0])
    with pytest.raises(error, match=re.escape(str(path)) + " " + pattern):
        load(root)


def test_npy_blocks_of_format_2_are_read(tmp_path):
    root, load = save("npy", tmp_path / "d")
    path = named_file(root, "npy")
    with open(path, "wb") as handle:
        np.lib.format.write_array(handle, BLOCKS[0], version=(2, 0))
    assert load(root).blocks[0].tobytes() == BLOCKS[0].tobytes()


def test_version_1_header_reads_csv_and_version_2_reads_npy(tmp_path):
    # The header's version picks the reader, whatever the file names say.
    root, load = save("npy", tmp_path / "d")
    header = json.loads((root / "header.json").read_text())
    (root / "header.json").write_text(json.dumps({**header, "version": 1}))
    with pytest.raises(ConfigError, match=re.escape(f"{named_file(root, 'npy')} is not UTF-8")):
        load(root)
    csv_root = write_csv_set(tmp_path / "c")
    header = json.loads((csv_root / "header.json").read_text())
    (csv_root / "header.json").write_text(json.dumps({**header, "version": 2}))
    with pytest.raises(ConfigError, match="is not a .npy file"):
        load(csv_root)


def conforms_reference(value, expected) -> bool:
    """The declared-type check element by element, as the package defines it."""
    if isinstance(expected, tuple):
        return any(conforms_reference(value, t) for t in expected)
    if isinstance(expected, list):
        return isinstance(value, list) and all(conforms_reference(v, expected[0]) for v in value)
    if not isinstance(value, expected) or (expected is not bool and isinstance(value, bool)):
        return False
    try:
        return expected not in (int, float) or math.isfinite(value)
    except OverflowError:
        return False


@pytest.mark.parametrize("expected", [[int], [float], [(int, float)], [str], (int, [float])],
                         ids=["ints", "floats", "numbers", "strings", "int-or-floats"])
def test_list_checks_match_the_element_by_element_check(expected):
    values = [[], [1, 2], [1.5, -0.0], [1, 2.5], [1, True], [False], [1.0, math.nan],
              [math.inf], [10**400], [1, "a"], ["a", "b"], [[1.0]], [None], 3, "abc"]
    for value in values:
        assert formats._conforms(value, expected) == conforms_reference(value, expected), value
