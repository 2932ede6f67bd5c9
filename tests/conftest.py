"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from glrfusion import ChannelModel, ConfigError, DimensionError, normalize_channel, simulate


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_channel(
    rng: np.random.Generator,
    n_samples: int,
    n_modes: int,
    *,
    orthonormal: bool = False,
    noise_variance: float | None = None,
    gain: complex | None = None,
) -> ChannelModel:
    h = complex_normal(rng, (n_samples, n_modes))
    if orthonormal:
        q, _ = np.linalg.qr(h)
        h = q[:, :n_modes]
    else:
        h = normalize_channel(h)
    if noise_variance is None:
        noise_variance = float(rng.uniform(0.4, 2.5))
    if gain is None:
        gain = complex(rng.normal(), rng.normal())
        if abs(gain) < 0.3:
            gain += 0.5
    return ChannelModel(matrix=h, gain=gain, noise_variance=noise_variance)


def random_instance(
    rng: np.random.Generator,
    *,
    n_channels: int | None = None,
    n_modes: int | None = None,
    n_snapshots: int | None = None,
    orthonormal: bool = False,
    min_samples: int = 4,
    max_samples: int = 16,
    with_signal: bool = True,
    subspace_safe: bool = False,
):
    """Random channels plus data, drawn in the acceptance-criteria ranges."""
    if n_channels is None:
        n_channels = int(rng.choice([1, 2, 3, 5]))
    if n_modes is None:
        n_modes = int(rng.integers(1, 4))
    if n_snapshots is None:
        # Subspace panels need rank beyond the mode count for a residual.
        low = n_modes + 1 if subspace_safe else n_modes
        n_snapshots = int(rng.integers(low, 13))
    lo = max(min_samples, n_modes + 1 if subspace_safe else n_modes)
    channels = [
        random_channel(rng, int(rng.integers(lo, max_samples + 1)), n_modes,
                       orthonormal=orthonormal)
        for _ in range(n_channels)
    ]
    amplitudes = None
    if with_signal:
        amplitudes = complex_normal(rng, (n_modes, n_snapshots))
    ms = simulate(channels, n_snapshots, seed=int(rng.integers(2**31)),
                  amplitudes=amplitudes)
    return channels, ms


def save_csv_measurements(ms, directory) -> Path:
    """``ms`` as a data set of version 1, laid out by hand as older and
    hand-made data sets are: header.json and one CSV per block, a line per
    row of interleaved real,imag entries at 17 significant digits."""
    root = Path(directory)
    root.mkdir(parents=True)
    names = [f"block_{i:02d}.csv" for i in range(ms.n_channels)]
    for name, block in zip(names, ms.blocks):
        rows = np.ascontiguousarray(block).view(np.float64).tolist()
        (root / name).write_text("".join(",".join(map("{:.17g}".format, row)) + "\n"
                                         for row in rows))
    header = {"format": "glrfusion-measurements", "version": 1, "n_snapshots": ms.n_snapshots,
              "channel_dims": list(ms.channel_dims), "blocks": names}
    (root / "header.json").write_text(json.dumps(header, indent=2) + "\n")
    return root


def _npy_header(path, shape, descr="<c16", fortran_order=False) -> None:
    """Write a .npy file of format 1.0 that holds only a header."""
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(
            handle, {"descr": descr, "fortran_order": fortran_order, "shape": shape})


def _with_nan(block):
    bad = block.copy()
    bad[-1, -1] = complex(np.nan, 0.0)
    return bad


# Ways a data set's .npy block (of at least two rows and two columns) can be
# wrong: each rewrites the file ``path``, which holds ``block``, and names the
# error load_measurements raises and the pattern its message has after the path.
BAD_NPY_BLOCKS = {
    "pickled": (lambda path, block: path.write_bytes(pickle.dumps(block)),
                ConfigError, r"is not a \.npy file: the magic string is not correct"),
    "object-dtype": (lambda path, block: np.save(path, block.astype(object), allow_pickle=True),
                     ConfigError, r"holds '\|O' entries, expected '<c16' \(complex128\)"),
    "float64": (lambda path, block: np.save(path, block.real),
                ConfigError, r"holds '<f8' entries, expected '<c16' \(complex128\)"),
    "big-endian": (lambda path, block: np.save(path, block.astype(">c16")),
                   ConfigError, r"holds '>c16' entries, expected '<c16' \(complex128\)"),
    "fortran-order": (lambda path, block: np.save(path, np.asfortranarray(block)),
                      ConfigError, r"is stored in Fortran order, expected C order"),
    "format-3.0": (lambda path, block: path.write_bytes(
                       path.read_bytes().replace(b"NUMPY\x01\x00", b"NUMPY\x03\x00", 1)),
                   ConfigError, r"is a \.npy file of format version 3\.0, expected 1\.0 or 2\.0"),
    "wrong-shape": (lambda path, block: np.save(path, block[:-1]),
                    DimensionError, r"holds an array of shape \(\d+, \d+\), expected"),
    "more-entries": (lambda path, block: _npy_header(path, (2**40, 2**40)),
                     DimensionError, r"holds an array of shape \(1099511627776, 1099511627776\)"),
    "truncated": (lambda path, block: path.write_bytes(path.read_bytes()[:-1]),
                  DimensionError, r"holds \d+ bytes of data, expected \d+"),
    "trailing-byte": (lambda path, block: path.write_bytes(path.read_bytes() + b"\0"),
                      DimensionError, r"holds \d+ bytes of data, expected \d+"),
    "truncated-header": (lambda path, block: path.write_bytes(path.read_bytes()[:20]),
                         ConfigError, r"is not a \.npy file: "),
    "non-finite": (lambda path, block: np.save(path, _with_nan(block)),
                   ConfigError, r"holds a non-finite entry"),
}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
