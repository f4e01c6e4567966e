#!/usr/bin/env bash
# race-repeat.sh PKG NAME... runs the named tests of PKG three times
# under the race detector. It first lists PKG's tests and fails if any
# NAME is not one of them: a -run pattern naming a deleted or renamed
# test would otherwise match nothing and pass.
#
#   .github/race-repeat.sh ./kv TestConcurrentCounters TestLostUpdatePrevented
set -euo pipefail
pkg=$1
shift
pattern=$(IFS='|'; echo "$*")
listed=$(go test -list "^($pattern)\$" "$pkg")
missing=0
for name in "$@"; do
	if ! grep -qx "$name" <<<"$listed"; then
		echo "race-repeat: $pkg has no test $name" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
exec go test -race -count=3 -run "$pattern" "$pkg"
