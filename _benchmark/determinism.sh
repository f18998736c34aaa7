#!/usr/bin/env bash
# Checks that a workload's exact work counts repeat for one seed across
# processes and between the untraced and traced runs, and that another seed
# changes them. Run from the repository root:
#
#   bash _benchmark/determinism.sh churn-recover [seconds]
set -euo pipefail

workload=$1
seconds=${2:-2}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

# counts SEED TRACE prints the run's counts as canonical JSON; a --trace 1
# run itself fails unless its untraced and traced counts are equal.
counts() {
	bash "$here/run.sh" --workload "$workload" --seed "$1" --seconds "$seconds" --trace "$2" 2>&1 >/dev/null |
		python3 -c '
import json, sys
detail = [json.loads(l) for l in sys.stdin if l.startswith("{")][-1]
if detail.get("traced_counts"):
    sys.exit("traced counts differ from the untraced ones")
print(json.dumps(detail["counts"], sort_keys=True))'
}

a=$(counts 1 0)
b=$(counts 1 1)
c=$(counts 2 0)
if [ "$a" != "$b" ]; then
	echo "FAIL: seed 1 counts differ between two runs" >&2
	exit 1
fi
if [ "$a" = "$c" ]; then
	echo "FAIL: seeds 1 and 2 gave the same counts" >&2
	exit 1
fi
echo "ok: $workload counts repeat for seed 1 (untraced, then traced in another process) and change for seed 2"
