#!/usr/bin/env bash
# Smoke checks of the `glrfusion` console script on PATH and of the installed
# package's fusion API, and the benchmark's oracles: every check CI makes
# besides the tier-1 tests.
#
#   scripts/smoke.sh                  run every step below, in order
#   source scripts/smoke.sh && STEP   run one step (CI runs one per job step)
#
# console_smoke writes its files to a new temporary directory and exports it
# as SMOKE_DIR (also to $GITHUB_ENV under GitHub Actions), where detect_smoke
# and scan_smoke read them.  fusion_smoke works in a new temporary directory
# of its own, and benchmark_oracles runs from the repository root.
set -euo pipefail

console_smoke() {
  SMOKE_DIR=$(mktemp -d)
  export SMOKE_DIR
  if [[ -n "${GITHUB_ENV:-}" ]]; then echo "SMOKE_DIR=$SMOKE_DIR" >> "$GITHUB_ENV"; fi
  (cd "$SMOKE_DIR"; _console_checks)
}

# Fresh processes: simulate, then null with P12 on two channels of equal noise
# variance, whose Beta KS reference is the one user of scipy.stats and loads
# it on first use. The same null on two worker processes, which receive the
# scenario's built, read-only channels with their cached bases, writes the
# same bytes; 202 trials split at trial 102, on a boundary of the blocks of
# trials the noise is keyed by. A roc with 201 trials, whose alternatives
# start at the odd trial ids 201 and 402, inside a block, writes the same
# bytes on one and on two worker processes, on P31 and on P33, whose
# per-channel noise estimates come from the channels' split at J that row 3's
# summary holds. So do P31, P33 and P21 at 25 and 40 dB, where the signal
# leaves some (25 dB) or all (40 dB) alternatives' tails too small for Gram
# eigenvalues, and those trials' splits take singular values: row 3's tall
# stacks on P31 and P33, row 2's wide L x JM stacks of matched outputs on
# P21, so a chunk of one worker and the chunks of two mix the two splits
# differently. P31's composite Gram matrix is the sum of the channels' Gram
# matrices over their noise variances, and only its composites that fall
# back whiten their stacks of factors.
# An SNR whose amplitude scale overflows exits 1 with an error line, and so
# does detect on a copy of the data set whose header names a file outside
# its directory, and on a copy whose first .npy block lost its last byte.
_console_checks() {
  channels='[{"n_samples": 8, "carrier_hz": 1e6, "sample_period_s": 1e-3, "gain": 1.0, "noise_variance": 2.0},
             {"n_samples": 8, "carrier_hz": 1e6, "sample_period_s": 1e-3, "gain": 0.5, "noise_variance": 2.0}]'
  echo "{\"seed\": 1, \"snapshots\": 4, \"modes\": 2, \"hypothesis\": \"h0\", \"channels\": $channels, \"output\": \"data\"}" > simulate.json
  echo "{\"panel\": \"p12\", \"modes\": 2, \"snapshots\": 4, \"trials\": 202, \"seed\": 1, \"channels\": $channels, \"output\": \"null\"}" > null.json
  glrfusion simulate --config simulate.json
  glrfusion null --config null.json | tee null.txt
  grep -q "^ks reference=beta " null.txt
  glrfusion null --config null.json --jobs 2 --set output='"null_jobs2"'
  cmp null/null_cdf.csv null_jobs2/null_cdf.csv
  echo "{\"panel\": \"p31\", \"modes\": 2, \"snapshots\": 4, \"trials\": 201, \"seed\": 3, \"snr_db\": [0.0, 6.0], \"pfa_targets\": [0.1, 0.05], \"channels\": $channels, \"output\": \"roc\"}" > roc.json
  glrfusion roc --config roc.json
  glrfusion roc --config roc.json --jobs 2 --set output='"roc_jobs2"'
  cmp roc/roc.csv roc_jobs2/roc.csv
  glrfusion roc --config roc.json --set panel='"p33"' --set output='"roc_p33"'
  glrfusion roc --config roc.json --set panel='"p33"' --set output='"roc_p33_jobs2"' --jobs 2
  cmp roc_p33/roc.csv roc_p33_jobs2/roc.csv
  glrfusion roc --config roc.json --set snr_db='[25.0, 40.0]' --set output='"roc_p31_loud"'
  glrfusion roc --config roc.json --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p31_loud_jobs2"' --jobs 2
  cmp roc_p31_loud/roc.csv roc_p31_loud_jobs2/roc.csv
  glrfusion roc --config roc.json --set panel='"p33"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p33_loud"'
  glrfusion roc --config roc.json --set panel='"p33"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p33_loud_jobs2"' --jobs 2
  cmp roc_p33_loud/roc.csv roc_p33_loud_jobs2/roc.csv
  glrfusion roc --config roc.json --set panel='"p21"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p21_loud"'
  glrfusion roc --config roc.json --set panel='"p21"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p21_loud_jobs2"' --jobs 2
  cmp roc_p21_loud/roc.csv roc_p21_loud_jobs2/roc.csv
  status=0
  glrfusion simulate --config simulate.json --set hypothesis='"h1"' --set snr_db=4000 \
    --set output='"huge_snr"' 2> huge_snr.txt || status=$?
  test "$status" -eq 1
  grep -q "^error:" huge_snr.txt
  if grep -q "Traceback" huge_snr.txt; then return 1; fi
  echo "{\"panel\": \"p13\", \"modes\": 2, \"channels\": $channels, \"output\": \"detect\"}" > detect.json
  echo "{\"panel\": \"p21\", \"modes\": 2, \"channels\": $channels, \"delays_s\": [0.0, 1e-4], \"dopplers_hz\": [-5.0, 0.0, 5.0], \"output\": \"scan\"}" > scan.json
  cp -r data escape
  python -c "import json; h = json.load(open('escape/header.json')); h['blocks'][0] = '../simulate.json'; json.dump(h, open('escape/header.json', 'w'))"
  status=0
  glrfusion detect --config detect.json escape 2> escape.txt || status=$?
  test "$status" -eq 1
  grep -q "^error: .*header\.json" escape.txt
  if grep -q "Traceback" escape.txt; then return 1; fi
  cp -r data truncated
  python -c "import pathlib; p = pathlib.Path('truncated/block_00.npy'); p.write_bytes(p.read_bytes()[:-1])"
  status=0
  glrfusion detect --config detect.json truncated 2> truncated.txt || status=$?
  test "$status" -eq 1
  grep -q "^error: .*block_00\.npy holds" truncated.txt
  if grep -q "Traceback" truncated.txt; then return 1; fi
}

# Column 3 fills the report's fusion statistics, on P13 and on P33. P33 reads
# each block's Gram matrix, and the blocks of N = 8 samples by M = 4
# snapshots are tall, so row 3's split takes its Gram eigenvalues. A copy of
# the data set in the CSV form of version 1 gives the same report bytes as
# simulate's .npy blocks.
detect_smoke() (
  cd "${SMOKE_DIR:?run console_smoke first}"
  glrfusion detect --config detect.json data
  grep -q '"fusion_stats"' detect/report.json
  glrfusion detect --config detect.json --set panel='"p33"' --set output='"detect_p33"' data
  grep -q '"fusion_stats"' detect_p33/report.json
  python - <<'PY'
import json
import pathlib

import numpy as np

src, dst = pathlib.Path("data"), pathlib.Path("data_csv")
dst.mkdir()
header = json.loads((src / "header.json").read_text())
names = []
for i, name in enumerate(header["blocks"]):
    names.append(f"block_{i:02d}.csv")
    rows = np.load(src / name).view(np.float64).tolist()
    (dst / names[-1]).write_text("".join(",".join(map("{:.17g}".format, row)) + "\n"
                                         for row in rows))
(dst / "header.json").write_text(json.dumps({**header, "version": 1, "blocks": names}))
PY
  glrfusion detect --config detect.json --set output='"detect_csv"' data_csv
  cmp detect/report.csv detect_csv/report.csv
  cmp detect/report.json detect_csv/report.json
)

# Row 2 scores each cell in its channels' bases. P11 then scans 300 Doppler
# bins and writes a header, one row per cell and one argmax. A second data
# set, simulated at 60 dB with channel 1 at the cell (2 ms, 62.5 Hz) of a
# 4 x 5 grid, leaves that Doppler bin a tail of about 1e-6 of the block's
# energy, too small to take as a difference of energies, so the bank forms
# that bin's residual. P11, P13 and P21 each write 21 lines of finite
# statistics whose one argmax row is the true cell. On P13 the reference
# channel's tail and the true cell's composite tail are that small too, so
# each is formed from its residual; P21 whitens its matched outputs in place.
scan_smoke() (
  cd "${SMOKE_DIR:?run console_smoke first}"
  glrfusion scan --config scan.json data
  test -s scan/scan.csv
  dopplers=$(python -c "print([round(-15.0 + 0.1 * k, 1) for k in range(300)])")
  glrfusion scan --config scan.json --set panel='"p11"' --set dopplers_hz="$dopplers" \
    --set output='"scan_p11"' data
  test "$(wc -l < scan_p11/scan.csv)" -eq 601
  test "$(awk -F, 'NR > 1 && $4 == 1' scan_p11/scan.csv | wc -l)" -eq 1
  python -c "import json; c = json.load(open('simulate.json')); c['channels'][1].update(delay_s=2e-3, doppler_hz=62.5); c.update(hypothesis='h1', snr_db=60.0, output='loud'); json.dump(c, open('loud.json', 'w'))"
  glrfusion simulate --config loud.json
  for panel in p11 p13 p21; do
    glrfusion scan --config scan.json --set panel="\"$panel\"" \
      --set delays_s='[0.0, 0.002, 0.004, 0.006]' \
      --set dopplers_hz='[-125.0, -62.5, 0.0, 62.5, 125.0]' --set output="\"scan_loud_$panel\"" loud
    test "$(wc -l < "scan_loud_$panel/scan.csv")" -eq 21
    python -c "import csv, math, sys; sys.exit(not all(math.isfinite(float(row['statistic'])) for row in csv.DictReader(open(sys.argv[1]))))" "scan_loud_$panel/scan.csv"
    test "$(awk -F, 'NR > 1 && $4 == 1 {print $1 "," $2}' "scan_loud_$panel/scan.csv")" = "0.002,62.5"
  done
)

# The fusion API, which no console command reaches, on the installed package:
# the eight messages of a small simulated data set round-trip through
# save_messages and load_messages, daisy_chain_fuse gives the same reports on
# the loaded and on the in-memory messages, and partition_cv over a balanced
# tree, built from a numpy integer count, gives the last report's
# cross-validation to 1e-12.  Both keep their fold constants for the last
# channel set, and partition_cv its leaf constants, matched by the identity
# of each channel: after fusing the first four channels, and the eight in
# reverse order over the same tree object, the eight give the same reports
# and the same partition_cv result as before, and so do a new list of the
# same channel objects and value-equal channels built anew.
fusion_smoke() (
  cd "$(mktemp -d)"
  python - <<'PY'
import sys

import numpy as np

from glrfusion import (ChannelModel, PropagationSpec, balanced_tree, channel_message,
                       daisy_chain_fuse, narrowband_channel, partition_cv, simulate)
from glrfusion.formats import load_messages, save_messages

rng = np.random.default_rng(1)
channels = [narrowband_channel(PropagationSpec(carrier_hz=1e6, sample_period_s=1e-3,
                                               n_samples=8, n_modes=2, delay_s=k * 1e-4),
                               gain=complex(*rng.uniform(0.5, 1.5, 2)),
                               noise_variance=float(rng.uniform(0.5, 2.0)))
            for k in range(8)]
amplitudes = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
ms = simulate(channels, 4, seed=1, amplitudes=amplitudes)
messages = [channel_message(ch, ms.block(i), ms.n_snapshots) for i, ch in enumerate(channels)]
loaded = load_messages(save_messages(messages, "messages"))


def values(reports):
    return [(r.composite, r.cross_validation, r.alphas.tolist(), r.per_channel.tolist())
            for r in reports]


reports = daisy_chain_fuse(messages)
if values(daisy_chain_fuse(loaded)) != values(reports):
    sys.exit("daisy_chain_fuse gives other reports on the loaded messages")
tree = balanced_tree(np.int64(8))
result = partition_cv(channels, ms, tree)
cv = result.cross_validation
expected = reports[-1].cross_validation
if not abs(cv - expected) <= 1e-12 * max(1.0, abs(expected)):
    sys.exit(f"partition_cv gives {cv!r}, the daisy chain {expected!r}")
daisy_chain_fuse(messages[:4])
partition_cv(channels[:4], simulate(channels[:4], 4, seed=2), balanced_tree(4))
daisy_chain_fuse(messages[::-1])
partition_cv(channels[::-1], simulate(channels[::-1], 4, seed=2), tree)
if values(daisy_chain_fuse(messages)) != values(reports):
    sys.exit("daisy_chain_fuse gives other reports after fusing another channel set")
if partition_cv(channels, ms, tree) != result:
    sys.exit("partition_cv gives another result after fusing another channel set")
if partition_cv(list(channels), ms, tree) != result:
    sys.exit("partition_cv gives another result on a new list of the same channels")
rebuilt = [ChannelModel(matrix=ch.matrix, gain=ch.gain, noise_variance=ch.noise_variance)
           for ch in channels]
if partition_cv(rebuilt, ms, tree) != result:
    sys.exit("partition_cv gives another result on channels built anew")
PY
)

# Each workload checks its outputs against its own oracles (null trials to
# 1e-12, scan cells against detect to 1e-10, fusion against detect to 1e-9)
# and exits 1 when one fails, at the development seed 1 and the confirmation
# seed 7 of perfbench/design.json.  A numpy RuntimeWarning fails the workload
# or its set-up probes, as in tier-1.
benchmark_oracles() (
  cd "$(dirname "${BASH_SOURCE[0]}")/.."
  export PYTHONWARNINGS=error::RuntimeWarning
  for seed in 1 7; do
    for w in mc-small mc-large scan-image fuse-chain; do
      python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 2 --trace 0
    done
  done
)

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
  console_smoke
  detect_smoke
  scan_smoke
  fusion_smoke
  benchmark_oracles
fi
