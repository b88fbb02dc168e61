#!/bin/sh
# Run the README pipeline, and every other command, through the mitoclock CLI.
#
#   scripts/readme_pipeline.sh [workdir]
#
# Writes into workdir (default: a new temporary directory) and stops at the
# first command that fails.  MITOCLOCK names the command to run and PYTHON the
# interpreter that writes the emg table; with the package not installed:
#
#   PYTHONPATH="$PWD/src" MITOCLOCK="python -W error::RuntimeWarning -m mitoclock.cli" \
#       scripts/readme_pipeline.sh
set -eu

mitoclock="${MITOCLOCK:-mitoclock}"
python="${PYTHON:-python}"
data="$(cd "$(dirname "$0")/../data" && pwd)"
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
cd "$work"
echo "writing into $work" >&2

run() {
  # word splitting of $mitoclock is intended: it may carry interpreter options
  $mitoclock "$@"
}

printf '%s\n' '{"family": "erfc-mu", "beta0": 0.17879, "m": 25.007, "sigma": 3.6141, "mu": 0.00333}' > model.json
run fit-growth "$data/growth_curve.csv" --out-prefix growth
for family in gamma1 gamma2 emg erfc erfc-mu; do
  run fit-imt "$data/imt_histogram.csv" --dt 1.25 --lambda 0.022 \
      --family "$family" --out-prefix "fit_$family"
done

"$python" -c "
import numpy as np, mitoclock as mc
from mitoclock.io import write_columns
a = np.arange(0.0, 80.0, 0.05)
model = mc.Model(family='emg', beta0=0.2, m=22.0, sigma=2.5)
write_columns('imt_density.csv', ('age', 'I'), (a, mc.imt_density(model, a)))
"
run invert imt_density.csv --out-prefix inv

run simulate fit_erfc-mu_model.json --f 0 0.6 0.84 --t-end 90 --out-prefix sweep
# 20 000 steps: more steps than age cells, through the blocked renewal solve
run simulate model.json --f 0 0.84 --t-end 1000 --out-prefix long
# 10 228 cells and 9000 steps: three slabs of lags over three epochs of steps, so the
# renewal solve takes its far-slab history once per epoch
run simulate model.json --f 0 0.84 --t-end 90 --dt 0.01 --out-prefix fine
# a quiescent death rate of its own
run simulate model.json --f 0.6 --t-end 90 --mu-q 0.02 --out-prefix muq
# dt * mu_q = 5 > 1 is a usage error (exit 2), not a negative quiescent pool
status=0
run simulate model.json --f 0.6 --t-end 10 --mu-q 100 --out-prefix bad || status=$?
test "$status" -eq 2

for model in fit_erfc-mu_model.json fit_gamma1_model.json fit_gamma2_model.json \
    fit_erfc_model.json model.json; do
  for suite in eigen gre imt-convergence fraction; do
    run verify "$model" --suite "$suite"
  done
done
# heavy death: the scheme's growth rate must not outrun lambda
printf '%s\n' '{"family": "erfc-mu", "beta0": 0.17879, "m": 25.007, "sigma": 3.6141, "mu": 0.5}' > heavy_death.json
run verify heavy_death.json --suite gre
# large death: the renewal root is taken in k = mu + lambda, so lambda = k - mu is finite
printf '%s\n' '{"family": "erfc-mu", "beta0": 0.17879, "m": 25.007, "sigma": 3.6141, "mu": 1000}' > large_death.json
run verify large_death.json --suite eigen
# a slow plateau after a narrow rise: the windows follow the model's own survival
printf '%s\n' '{"family": "erfc", "beta0": 0.05, "m": 10, "sigma": 0.1}' > slow_plateau.json
run verify slow_plateau.json --suite imt-convergence
