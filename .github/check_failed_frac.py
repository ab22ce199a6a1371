"""Check each workload's failed_frac on the last line of a bench/run.py output against a pinned value.

Usage: python3 .github/check_failed_frac.py OUTPUT NAME=FRACTION [NAME=FRACTION ...]
(NAME is the metric's name: prefixed with the workload's, as in catmap-orbit/failed_frac, in an
all-workload run).

"correct" forgives the ops on the known-defect lists, and a list that names a mended defect would forgive
a regression there too; so failed_frac must also be the fraction measured at the run's seed: a change
that mends or breaks a probe updates the pinned values.
"""
import fractions
import json
import sys

path, *pins = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    metrics = json.loads(fh.read().splitlines()[-1])["metrics"]
want = dict(pin.split("=") for pin in pins)
got = {name: metrics[name]["value"] for name in want}
sys.exit(0 if all(got[k] == float(fractions.Fraction(v)) for k, v in want.items()) else f"{got} != {want}")
