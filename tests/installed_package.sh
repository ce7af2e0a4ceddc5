#!/usr/bin/env bash
# The installed package and its console script, end to end: every command
# must exit as stated and every pinned output must match byte for byte.
# Run it from anywhere after `python -m pip install -e ".[test]"`:
#
#     bash -e tests/installed_package.sh
#
# Scratch files go to $RUNNER_TEMP, or to a fresh temporary directory,
# removed on exit, when that is unset.
set -e
cd "$(dirname "$0")/.."
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
# importing the package and its CLI loads no numpy
python -c "import ckshift.cli, sys; sys.exit('numpy' in sys.modules)"
# nor the algebra module, which only the verify subcommands load
python -c "import ckshift.cli, sys; sys.exit('ckshift.ck' in sys.modules)"
# importing the package loads matrix and sft, but neither of the two
python -c "import ckshift, sys; sys.exit('ckshift.ck' in sys.modules or 'numpy' in sys.modules)"
printf '1 1\n1 0\n' > "$RUNNER_TEMP/golden.txt"
ckshift verify-lemma2 --matrix "$RUNNER_TEMP/golden.txt" --n0 2 --n 2
# the same bytes as the pinned report
ckshift verify-lemma2 --matrix tests/data/golden.txt --n0 2 --n 2 --format json > "$RUNNER_TEMP/golden_2_2.json"
diff tests/data/verify_lemma2_golden_2_2.json.out "$RUNNER_TEMP/golden_2_2.json"
ckshift parry --matrix tests/data/random3.txt --format json > "$RUNNER_TEMP/parry_random3.json"
diff tests/data/parry_random3_natural.json.out "$RUNNER_TEMP/parry_random3.json"
# the Parry rows over the successor lists, and the Noda path, on the 12-cycle with a loop
ckshift parry --matrix tests/data/cycle12.txt --format json > "$RUNNER_TEMP/parry_cycle12.json"
diff tests/data/parry_cycle12_natural.json.out "$RUNNER_TEMP/parry_cycle12.json"
ckshift entropy --matrix tests/data/cycle12.txt --format json > "$RUNNER_TEMP/entropy_cycle12.json"
diff tests/data/entropy_cycle12_natural.json.out "$RUNNER_TEMP/entropy_cycle12.json"
# the convergence table's target, log r(A), comes through _perron.perron_vectors
ckshift convergence --matrix tests/data/cycle12.txt --format json > "$RUNNER_TEMP/convergence_cycle12.json"
diff tests/data/convergence_cycle12_natural.json.out "$RUNNER_TEMP/convergence_cycle12.json"
# entropy checks --tol on a reducible matrix too, where no Perron data is computed
printf '1 1\n0 1\n' > "$RUNNER_TEMP/upper.txt"
code=0
ckshift entropy --matrix "$RUNNER_TEMP/upper.txt" --tol nan || code=$?
test "$code" -eq 2
# [[1]]: the exact kernel and the walk each gather a single index
printf '1\n' > "$RUNNER_TEMP/one.txt"
code=0
ckshift convergence --matrix "$RUNNER_TEMP/one.txt" --k-max 3 --format csv > "$RUNNER_TEMP/convergence_one.csv" || code=$?
test "$code" -eq 0
printf 'k,w_k,eq3,ratio,witness\n1,1,0,0,0\n2,1,0,0,0\n3,1,0,0,0\n' | diff - "$RUNNER_TEMP/convergence_one.csv"
code=0
ckshift entropy --matrix "$RUNNER_TEMP/one.txt" --format json > /dev/null || code=$?
test "$code" -eq 0
ckshift dual --matrix tests/data/parallel4.txt --format json > "$RUNNER_TEMP/dual_parallel4.json"
diff tests/data/dual_parallel4.json.out "$RUNNER_TEMP/dual_parallel4.json"
# the relation suite's failure report, byte for byte, exits 1
code=0
ckshift verify-ck --matrix tests/data/golden.txt --inject-fault --format json > "$RUNNER_TEMP/verify_ck_fault.json" || code=$?
test "$code" -eq 1
diff tests/data/verify_ck_golden_fault.json.out "$RUNNER_TEMP/verify_ck_fault.json"
# the relation suite's passing report on full3, byte for byte, exits 0
code=0
ckshift verify-ck --matrix tests/data/full3.txt --format json > "$RUNNER_TEMP/verify_ck_full3.json" || code=$?
test "$code" -eq 0
diff tests/data/verify_ck_full3.json.out "$RUNNER_TEMP/verify_ck_full3.json"
# a word cap far past the count's exact bound is refused at once,
# from counts of short lengths, in one stderr line
code=0
timeout 20 ckshift words --k-max 10000000 --matrix tests/data/golden.txt > /dev/null 2> "$RUNNER_TEMP/deep_words.err" || code=$?
test "$code" -eq 2
test "$(wc -l < "$RUNNER_TEMP/deep_words.err")" -eq 1
code=0
timeout 20 ckshift verify-lemma2 --n0 1 --n 99999999999999999999 --matrix tests/data/golden.txt > /dev/null 2>&1 || code=$?
test "$code" -eq 2
# the witness verifier's failure report on full3, byte for byte, exits 1
code=0
ckshift verify-lemma2 --matrix tests/data/full3.txt --n0 1 --n 2 --inject-fault --format json > "$RUNNER_TEMP/verify_lemma2_fault.json" || code=$?
test "$code" -eq 1
diff tests/data/verify_lemma2_full3_1_2_fault.json.out "$RUNNER_TEMP/verify_lemma2_fault.json"
# a deep start of the word counts must not walk every shorter length
timeout 20 ckshift convergence --n0 1000000 --k-max 3 --matrix tests/data/golden.txt > /dev/null
# entropy at a deep k counts two word lengths, not every shorter one
timeout 20 ckshift entropy --k-max 1000000 --matrix tests/data/golden.txt > /dev/null
# a deep count of order d = 12 squares its remainders by the split;
# the radius and the Markov entropy do not depend on k
timeout 20 ckshift entropy --k-max 1000000 --matrix tests/data/cycle12.txt > "$RUNNER_TEMP/entropy_cycle12_deep.txt"
diff <(head -n 2 tests/data/entropy_cycle12_natural.text.out) <(head -n 2 "$RUNNER_TEMP/entropy_cycle12_deep.txt")
# the witness verifier at depth six on full3: every case passes in time
test "$(timeout 120 ckshift verify-lemma2 --matrix tests/data/full3.txt --n0 3 --n 3)" = "all 10890 cases passed"
# a verification mismatch exits 1, an invalid input exits 2
code=0
ckshift verify-lemma2 --matrix "$RUNNER_TEMP/golden.txt" --n0 1 --n 2 --inject-fault > /dev/null || code=$?
test "$code" -eq 1
printf '1 1\n0 0\n' > "$RUNNER_TEMP/zero_row.txt"
code=0
ckshift validate --matrix "$RUNNER_TEMP/zero_row.txt" || code=$?
test "$code" -eq 2
# the matrix constructor checks its grid, whichever way it is called
# (a bare "! python ..." would not stop this script: bash -e ignores
# the status of a command inverted with !)
code=0
python -c "import ckshift as cs; cs.TransitionMatrix(((1, 1), (0, 0)))" 2> /dev/null || code=$?
test "$code" -eq 1
# the check of the edge matrix A' visits each shared row once: O(n E)
printf '3000\n' > "$RUNNER_TEMP/big.txt"; timeout 20 ckshift dual --matrix "$RUNNER_TEMP/big.txt" --format json > /dev/null
# only words and convergence have a CSV form
code=0
ckshift verify-ck --matrix tests/data/golden.txt --format csv || code=$?
test "$code" -eq 2
