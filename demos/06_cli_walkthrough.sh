#!/bin/sh
# Drive every command-line verb end to end in a scratch directory.
# Usage: PYTHONPATH=src sh demos/06_cli_walkthrough.sh
# (or plain sh with the package installed)
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

cat > "$WORK/config.json" <<'EOF'
{
  "preset": "desk",
  "trials": 5,
  "synth": {"train_per_class": 20, "test_per_class": 10},
  "base_train": {"epochs": 150},
  "finetune": {"iterations": 100},
  "inversion": {"iterations": 200},
  "adaptation": {"anchors_per_class": 10, "real_per_class": 10},
  "ablate": {"shots": [1, 5, 10]}
}
EOF

echo "== train-base =="
python3 -m anchorinv train-base --config "$WORK/config.json" --out "$WORK/base"
ls "$WORK/base"

# downstream verbs read the trained artifacts via config keys
python3 - "$WORK" <<'EOF'
import json, sys
work = sys.argv[1]
cfg = json.load(open(f"{work}/config.json"))
cfg["checkpoint"] = f"{work}/base/checkpoint.bin"
cfg["anchors"] = f"{work}/base/anchors.bin"
json.dump(cfg, open(f"{work}/config.json", "w"), indent=2)
EOF

echo "== run =="
python3 -m anchorinv run --config "$WORK/config.json" --out "$WORK/run"

echo "== audit-inversion =="
python3 -m anchorinv audit-inversion --config "$WORK/config.json" --out "$WORK/audit"
head -6 "$WORK/audit/audit.txt"

echo "== ablate (shots axis) =="
python3 -m anchorinv ablate --config "$WORK/config.json" --axis shots --out "$WORK/ablate"
cat "$WORK/ablate/ablate.txt"

echo "== render-report =="
python3 -m anchorinv render-report "$WORK/run/report.json"
