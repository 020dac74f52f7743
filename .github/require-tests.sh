#!/usr/bin/env bash
# Usage: .github/require-tests.sh "<packages>" TestName...
#
# Fails when any named top-level test is missing from the packages. A
# `go test -run REGEX` step passes when its regex matches nothing, so a
# CI step that selects tests by name runs this first: deleting or
# renaming a test it names then fails the step instead of silently
# shrinking it.
set -euo pipefail
pkgs=$1
shift
# shellcheck disable=SC2086 # $pkgs is a space-separated package list
listed=$(go test -list '.*' $pkgs)
missing=0
for name in "$@"; do
	if ! grep -qx "$name" <<<"$listed"; then
		echo "require-tests: $name not found in $pkgs" >&2
		missing=1
	fi
done
exit "$missing"
