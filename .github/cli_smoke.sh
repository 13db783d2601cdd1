#!/usr/bin/env bash
# CLI smoke run: every command on the inputs that once broke it, with the
# exit codes the CLI promises (0 success, 1 validation failure). No command
# needs scipy, so this runs with numpy alone as well as with the "search"
# extra; only README's library example, which runs the general search, is
# skipped without scipy. Run from anywhere: bash .github/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
# a numpy warning on these edge inputs fails the run, as pyproject.toml's
# filterwarnings makes it fail a test
export PYTHONWARNINGS=error::RuntimeWarning
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

qd() { python -m qdephase "$@"; }
# a validation failure: exit 1, not 2 and not 0, and named, not a traceback
# (an uncaught warning also exits 1)
exits_one() {
  local rc=0 err
  err=$(qd "$@" 2>&1 > /dev/null) || rc=$?
  printf '%s\n' "$err" >&2
  test "$rc" -eq 1 && ! grep -q '^Traceback' <<< "$err"
}

qd sweep --t-steps 11 --out "$out/s.csv" | tee "$out/s.json"
# the paper's result: at matched mixedness e_mixed lies above N for one pair
# of epsilon and below it for another, so no fixed order holds between them
python - "$out/s.json" <<'EOF'
import json, sys
ordering = json.load(open(sys.argv[1]))["ordering"]
assert ordering["no_global_order"] is True, ordering
above, below = ordering["witness_mixed_above"], ordering["witness_mixed_below"]
for w in (above, below):
    assert isinstance(w, list) and len(w) == 5, w
    assert all(isinstance(x, float) for x in w), w
assert above[4] > 0.0 > below[4], (above, below)
EOF
qd sweep --include-css --t-steps 11 --out "$out/c.csv"
# the figure grid at 2001 t-points, written in slices
qd sweep --include-css --t-steps 2001 --out "$out/d.csv"
# the product-state endpoints: rho's eigenpairs have three zero weights
# there, and the spin-flip matrix has rank <= 1
qd sweep --epsilon-list 0,0.5,1 --t-steps 501 --out "$out/e.csv"
# a hot reservoir at the endpoints, where N0 -> 0 and gamma -> 1: every row
# still meets the paper's relations at RANGE_SLACK
qd sweep --epsilon-list 0,0.05,0.5,0.95,1 --ntilde 8 --t-steps 2001 --out "$out/h.csv"
# a hair from the product states: rho's small eigenvalue falls below 1e-9,
# and er_exact still counts it as support, so er_lin <= er_exact. On 10001
# t-points it also comes near 1.4e-14, where an eigensolve's spectrum floor
# cost e_maxmixed up to 6e-8; from the singular values of one Jacobi
# rotation of the Kraus factor it meets 1 - (sqrt(l1) + sqrt(pq gamma / l1))/2
# of the 2x2 outer block (the sweep's own gate holds it to the equal
# 1 - sqrt(1 + 2 eps (1-eps) sqrt(gamma) / n)/2 within 1e-12)
qd sweep --epsilon-list 0.00001,0.99999 --t-steps 10001 --out "$out/p.csv"
python - "$out/p.csv" <<'EOF'
import sys
import numpy as np
rows = np.genfromtxt(sys.argv[1], delimiter=",", names=True)
eps, gamma, abs_a = rows["epsilon"], rows["gamma"], rows["abs_a"]
n = eps * eps + (1.0 - eps) * (1.0 - eps)
p, q = eps * eps / n, (1.0 - eps) * (1.0 - eps) / n
l1 = (p + q + np.sqrt((p - q) * (p - q) + 4.0 * p * q * abs_a * abs_a)) / 2.0
expect = 1.0 - (np.sqrt(l1) + np.sqrt(p * q * gamma / l1)) / 2.0
worst = np.abs(rows["e_maxmixed"] - expect).max()
assert len(rows) == 20002 and worst <= 1e-11, (len(rows), worst)
EOF
# a huge ntilde, where log|a| overflows to -inf: |a| = 0 and gamma = 1
# from the first t past 0, with no overflow warning
qd sweep --ntilde 1e308 --t-steps 11 --out "$out/n.csv" > /dev/null
# a usage error is a validation failure
exits_one sweep --no-such-flag
# a list that starts with "-" takes the --flag=-x,y form
qd sweep --epsilon-list=-0,0.5 --t-steps 5 --out "$out/m.csv"

qd oracle-check --modes 30 --t-steps 200
# a non-finite reservoir input is a validation failure
exits_one oracle-check --omega-ratios nan,1,1 --modes 3
# so is a non-positive frequency ratio (the "=" keeps argparse from reading
# -1,1,1 as a flag)
exits_one oracle-check --omega-ratios=-1,1,1 --modes 3
# and an epsilon outside [0, 1]
exits_one oracle-check --epsilon 1.5
# and a huge ntilde, which no Fock cutoff reaches
exits_one oracle-check --ntilde 1e308
# and an alpha whose |alpha|^2, the reservoir's ntilde, overflows
exits_one oracle-check --alphas=1e308
# and a coupling whose branch rate (mu1 + mu2) N/2 overflows, though mu1 + mu2
# does not
exits_one oracle-check --mu2 1e308

# the README's CLI examples as written, with its config example (one file
# for both commands) saved as the run.ini they read: a flag or a config key
# the CLI no longer has fails here
awk '/^```ini$/ {ini = 1; next} /^```$/ {ini = 0} ini' README.md > "$out/run.ini"
grep -q '^\[oracle\]' "$out/run.ini"
awk '/^## / {cli = ($0 == "## CLI")} cli && /^```sh$/ {sh = 1; next} /^```$/ {sh = 0} sh' \
    README.md > "$out/readme_cli.sh"
grep -q '^qdephase oracle-check' "$out/readme_cli.sh"
(
  cd "$out"
  qdephase() { qd "$@"; }
  . ./readme_cli.sh > /dev/null
  qd oracle-check --config run.ini > /dev/null
)

# the README's library example as written; it calls closest_separable_bures,
# the general search, so it needs scipy
awk '/^## / {lib = ($0 == "## Library quick start")} lib && /^```python$/ {py = 1; next} /^```$/ {py = 0} py' \
    README.md > "$out/readme_library.py"
grep -q 'closest_separable_bures' "$out/readme_library.py"
if python -c "import scipy.optimize" 2> /dev/null; then
  python "$out/readme_library.py" > /dev/null
else
  echo "cli smoke: README's library example skipped: scipy is not installed"
fi

# css on a stored Bell state, in closed form: e_value = 1 - 1/sqrt(2)
python -c "import sys; from qdephase.states import *
save_state(initial_pure(0.5), sys.argv[1])" "$out/bell.json"
qd css "$out/bell.json" --out "$out/bell_css.json"
python -c "import json, math, sys; e = json.load(open(sys.argv[1]))['e_value']
assert abs(e - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-14, e" "$out/bell_css.json"
# a nearly singular state (lambda_min = 8.9e-9): css reads rho through
# V sqrt(Lambda), and its e_value meets the concurrence formula
python - "$out/near.json" <<'EOF'
import sys
import numpy as np
from qdephase.states import save_state
rng = np.random.default_rng(10_107)
g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
w = rng.dirichlet(np.ones(4) * 0.5)
rho = (g * w) @ g.conj().T
rho = (rho + rho.conj().T) / 2.0
save_state(rho / rho.trace().real, sys.argv[1])
EOF
qd css "$out/near.json" --out "$out/near_css.json"
python -c "import json, sys; gap = json.load(open(sys.argv[1]))['closed_gap']
assert abs(gap) <= 1e-12, gap" "$out/near_css.json"
# a state file with an inf imaginary entry, or with a corner pair near the
# largest float, is a validation failure
python - "$out" <<'EOF'
import json, sys
from qdephase.states import initial_pure, state_to_json
for name, part, pair in (("inf_im", "im", (float("inf"), 0.0)), ("huge", "re", (1e308, -1e308))):
    blob = state_to_json(initial_pure(0.5))
    blob[part][0][3], blob[part][3][0] = pair
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(blob, fh)
EOF
exits_one css "$out/inf_im.json"
exits_one css "$out/huge.json"
# in one process, every command twice: the second round runs on the parser
# the first built and must print the same and exit the same
(cd "$out" && python - <<'EOF'
import contextlib, io
from qdephase import cli
def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()
argvs = [["sweep", "--t-steps", "5", "--out", "twice.csv"],
         ["oracle-check", "--t-steps", "5"],
         ["css", "bell.json"]]
first = [run(argv) for argv in argvs]
second = [run(argv) for argv in argvs]
assert [rc for rc, _ in first] == [0, 0, 0], first
assert second == first, (first, second)
EOF
)
echo "cli smoke: ok"
