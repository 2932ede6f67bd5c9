"""The file formats: pinned bytes, and headers that name files outside their directory."""

from __future__ import annotations

import json
import re
import shutil

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
from glrfusion.formats import load_messages, save_messages

# Entries that need all 17 significant digits, a subnormal-scale and a huge one, and -0.
BLOCKS = (np.array([[1 / 3, -2e-300j], [0.1 + 1j, -0.0]]), np.array([[1e300, -1 / 7]]))
FACTOR = np.array([[1 / 3, 0.5j], [0, -2.0]])
COORDINATES = np.array([[-2e-300, 1 / 3, 0.1j], [2.5, 0, -1e-5]])

MEASUREMENT_FILES = {
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


def test_measurement_set_bytes_are_pinned(tmp_path):
    root = save_measurements(MeasurementSet(BLOCKS), tmp_path / "d")
    assert files_in(root) == MEASUREMENT_FILES
    for loaded, block in zip(load_measurements(root).blocks, BLOCKS):
        np.testing.assert_array_equal(loaded, block)


def test_message_set_bytes_are_pinned(tmp_path):
    root = save_messages([ChannelMessage(factor=FACTOR, coordinates=COORDINATES)], tmp_path / "m")
    assert files_in(root) == MESSAGE_FILES
    (loaded,) = load_messages(root)
    np.testing.assert_array_equal(loaded.factor, FACTOR)
    np.testing.assert_array_equal(loaded.coordinates, COORDINATES)


# The file a test renames in a header: a data set's first block, or a message's field.
KINDS = ["block", "factor", "coordinates"]


def save(kind: str, directory):
    """A saved data set or message set holding the file of ``kind``, and its loader."""
    if kind == "block":
        return save_measurements(MeasurementSet(BLOCKS), directory), load_measurements
    message = ChannelMessage(factor=FACTOR, coordinates=COORDINATES)
    return save_messages([message], directory), load_messages


def rename_in_header(root, kind: str, name: str) -> str:
    """Point the header's entry for the file of ``kind`` at ``name``; returns the name it held."""
    header = json.loads((root / "header.json").read_text())
    entry, key = (header["blocks"], 0) if kind == "block" else (header["messages"][0], kind)
    old, entry[key] = entry[key], name
    (root / "header.json").write_text(json.dumps(header))
    return old


@pytest.mark.parametrize("kind", KINDS)
def test_header_naming_a_file_of_the_parent_directory_is_rejected(tmp_path, kind):
    root, load = save(kind, tmp_path / "d")
    old = rename_in_header(root, kind, "../x.csv")
    shutil.copy(root / old, tmp_path / "x.csv")  # a file the loader could parse
    with pytest.raises(ConfigError, match=r"header\.json names '\.\./x\.csv'"):
        load(root)


@pytest.mark.parametrize("kind", KINDS)
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
    return root / (header["blocks"][0] if kind == "block" else header["messages"][0][kind])


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
    block = np.concatenate([extremes, randoms]).view(np.complex128).reshape(4, 8)
    (loaded,) = load_measurements(save_measurements(MeasurementSet((block,)),
                                                    tmp_path / "d")).blocks
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
