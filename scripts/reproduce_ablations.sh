#!/usr/bin/env bash
# Runs every CLI ablation on the synthetic fixture. Results land under
# $LASP_OUT_ROOT (default ./runs). Expect a few minutes per grid cell at
# the default 150 epochs; pass extra --set overrides to shrink it. The CLI
# runs as `python3 -m lasp.cli`, so lasp must be importable (installed, or
# its src/ directory on PYTHONPATH).
set -euo pipefail

SEED="${SEED:-0}"
EXTRA=("$@")

python3 -m lasp.cli train             --seed "$SEED" "${EXTRA[@]}"
python3 -m lasp.cli ablate-loss       --seed "$SEED" "${EXTRA[@]}"
python3 -m lasp.cli ablate-components --seed "$SEED" "${EXTRA[@]}"
python3 -m lasp.cli ablate-templates  --seed "$SEED" "${EXTRA[@]}"
python3 -m lasp.cli distract          --seed "$SEED" "${EXTRA[@]}"
