#!/usr/bin/env bash
# Compares a scenario run's answer CRC with the one pinned for it in
# scenarios/expected_crc.txt.
#
#   scripts/check_scenario_crc.sh <scenario name> <scenario_runner CSV>
#
# Exits 1 when the CSV's `result_crc` differs from the pinned value or
# the scenario has no pinned line. Used by `scripts/check.sh
# --scenarios` and the CI scenario matrix.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <scenario name> <csv>" >&2
  exit 2
fi
name="$1"
csv="$2"

got="$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++)
                            if ($i == "result_crc") c = i }
                NR == 2 && c { print $c }' "${csv}")"
want="$(awk -v n="${name}" '$1 == n { print $2 }' scenarios/expected_crc.txt)"
if [[ -z "${got}" ]]; then
  echo "FAIL: ${csv} has no result_crc value" >&2
  exit 1
fi
if [[ -z "${want}" ]]; then
  echo "FAIL: scenario ${name} has no pinned CRC in" \
       "scenarios/expected_crc.txt" >&2
  exit 1
fi
if [[ "${got}" != "${want}" ]]; then
  echo "FAIL: scenario ${name} served CRC ${got}, pinned ${want}" \
       "(scenarios/expected_crc.txt)" >&2
  exit 1
fi
echo "pinned CRC ok: ${name} ${got}"
