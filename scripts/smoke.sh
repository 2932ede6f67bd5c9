#!/usr/bin/env bash
# Smoke checks of the `glrfusion` console script on PATH, and the benchmark's
# oracles: every check CI makes besides the tier-1 tests.
#
#   scripts/smoke.sh                  run every step below, in order
#   source scripts/smoke.sh && STEP   run one step (CI runs one per job step)
#
# console_smoke writes its files to a new temporary directory and exports it
# as SMOKE_DIR (also to $GITHUB_ENV under GitHub Actions), where detect_smoke
# and scan_smoke read them.  benchmark_oracles runs from the repository root.
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
# summary holds. So does P33 at 25 and 40 dB, where the signal leaves some
# (25 dB) or all (40 dB) alternatives' tails too small for Gram eigenvalues,
# and those trials' splits take singular values. An SNR whose amplitude scale
# overflows exits 1 with an error line, and so does detect on a copy of the
# data set whose header names a file outside its directory.
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
  glrfusion roc --config roc.json --set panel='"p33"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p33_loud"'
  glrfusion roc --config roc.json --set panel='"p33"' --set snr_db='[25.0, 40.0]' \
    --set output='"roc_p33_loud_jobs2"' --jobs 2
  cmp roc_p33_loud/roc.csv roc_p33_loud_jobs2/roc.csv
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
}

# Column 3 fills the report's fusion statistics, on P13 and on P33. P33 reads
# each block's Gram matrix, and the blocks of N = 8 samples by M = 4
# snapshots are tall, so row 3's split takes its Gram eigenvalues.
detect_smoke() (
  cd "${SMOKE_DIR:?run console_smoke first}"
  glrfusion detect --config detect.json data
  grep -q '"fusion_stats"' detect/report.json
  glrfusion detect --config detect.json --set panel='"p33"' --set output='"detect_p33"' data
  grep -q '"fusion_stats"' detect_p33/report.json
)

# Row 2 scores each cell in its channels' bases. P11 then scans 300 Doppler
# bins, more than one of the bank's blocks holds (256 bins of N = 8 samples by
# M = 4 snapshots), and writes a header, one row per cell and one argmax.
scan_smoke() (
  cd "${SMOKE_DIR:?run console_smoke first}"
  glrfusion scan --config scan.json data
  test -s scan/scan.csv
  dopplers=$(python -c "print([round(-15.0 + 0.1 * k, 1) for k in range(300)])")
  glrfusion scan --config scan.json --set panel='"p11"' --set dopplers_hz="$dopplers" \
    --set output='"scan_p11"' data
  test "$(wc -l < scan_p11/scan.csv)" -eq 601
  test "$(awk -F, 'NR > 1 && $4 == 1' scan_p11/scan.csv | wc -l)" -eq 1
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
  benchmark_oracles
fi
