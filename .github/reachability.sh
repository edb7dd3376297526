#!/usr/bin/env bash
# Reachability ledger: every non-test function that no command, example
# or gridlint run executes must have a line in unreached.txt, and every
# line there must name such a function.
#
#   bash .github/reachability.sh DIR
#
# DIR is a GOCOVERDIR that holds nothing but what CI's "Refused flags"
# step wrote there from a -cover gridlab refusing bad flags (counters of
# an older build would mark its functions as run); this script adds the
# pinned rows of cmd/gridlab (TestPinnedOutputs, TestAllMatchesResultsFile),
# the five examples and `gridlint ./...`, and compares the functions none
# of them ran with unreached.txt. A function ran when one of its counters
# counted (`go tool covdata textfmt`); `covdata func` names the functions
# but reads 0.0% for a body with no statements even when it runs. A
# package that no binary links is one line for the whole package. bench/
# is not a user: its own functions are left out, and a `bench` line must
# name a function that bench's TestSmoke runs, measured the same way in
# a second directory. The summary line also goes to DIR.summary.
set -euo pipefail
dir=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
mod=$(go list -m)

go test -cover -coverpkg=./... -run 'TestPinnedOutputs|TestAllMatchesResultsFile' ./cmd/gridlab \
	-args -test.gocoverdir="$dir"
for p in examples/* cmd/gridlint; do
	go build -cover -coverpkg=./... -o "$bin/${p##*/}" "./$p"
done
for e in examples/*; do
	GOCOVERDIR="$dir" "$bin/${e##*/}" > /dev/null
done
GOCOVERDIR="$dir" "$bin/gridlint" ./...
mkdir "$bin/bench"
go test -cover -coverpkg=./... -run '^TestSmoke$' ./bench -args -test.gocoverdir="$bin/bench"

# ran COVERDIR: "file line function 0|1" for every function outside
# bench/, 1 when a counter in its body counted. A counted block belongs
# to the nearest function that starts on or above its first line.
ran() {
	go tool covdata textfmt -i "$1" -o "$bin/text"
	{
		go tool covdata func -i "$1" | awk -v m="$mod/" '
			index($1, m) == 1 && index($1, m "bench/") != 1 && NF == 3 {
				split(substr($1, length(m) + 1), p, ":"); print p[1], p[2], 0, $2 }'
		awk -v m="$mod/" 'NR > 1 && $3 > 0 && index($1, m) == 1 {
				split(substr($1, length(m) + 1), p, ":"); print p[1], int(p[2]), 1 }' "$bin/text"
	} | sort -k1,1 -k2,2n -k3,3n | awk '
		$3 == 0 { fn[++n] = $1 " " $2 " " $4; cur = n; file = $1 }
		$3 == 1 && $1 == file { hit[cur] = 1 }
		END { for (i = 1; i <= n; i++) print fn[i], hit[i] + 0 }'
}
ran "$dir" > "$bin/funcs"
ran "$bin/bench" > "$bin/bench.funcs"
awk '$4 == 0 { print $1, $3 }' "$bin/funcs" > "$bin/want"
awk '$4 == 1 { print $1, $3 }' "$bin/bench.funcs" > "$bin/bench.ran"
go list -f '{{if .GoFiles}}{{.Dir}}{{end}}' ./... | sed "s#^$PWD/##" | grep -v '^bench$' |
	while read -r pkg; do
		grep -q "^$pkg/[^/ ]* " "$bin/funcs" || echo "$pkg (package)"
	done >> "$bin/want"
sort -o "$bin/want" "$bin/want"

# A ledger line is "file function verdict", an optional "# note" after.
fail=0
sed 's/[[:space:]]*#.*//; /^$/d' unreached.txt > "$bin/ledger"
if bad=$(grep -vE '^[^ ]+ [^ ]+ (paper S[0-9]+|guard|bench)$' "$bin/ledger"); then
	echo "unreached.txt: lines without a verdict (paper S<n>, guard, bench):" >&2
	echo "$bad" >&2
	fail=1
fi
awk '{ print $1, $2 }' "$bin/ledger" | sort > "$bin/have"
if ! diff -u --label unreached.txt --label measured "$bin/have" "$bin/want" >&2; then
	echo "unreached.txt is out of date: a + line is unreached and has no line; a - line names a function that ran or no longer exists" >&2
	fail=1
fi
while read -r file fn verdict arg; do
	case $verdict in
	paper)
		grep -q "^| $arg |" DESIGN.md || { echo "$file $fn: DESIGN §2 has no row $arg" >&2; fail=1; }
		;;
	bench)
		grep -qxF "$file $fn" "$bin/bench.ran" || { echo "$file $fn: bench's TestSmoke does not run it" >&2; fail=1; }
		;;
	esac
done < "$bin/ledger"

# Lines an unreached function spans, doc comment included; a package
# line counts all its non-test lines.
awk '$4 == 0 { print $1, $2 }' "$bin/funcs" | while read -r file line; do
	awk -v s="$line" '
		{ src[NR] = $0 }
		END {
			b = s; while (b > 1 && src[b-1] ~ /^\/\//) b--
			e = s; if (src[s] !~ /}$/) { e++; while (e < NR && src[e] !~ /^}/) e++ }
			print e - b + 1 }' "$file"
done > "$bin/spans"
for pkg in $(awk '$2 == "(package)" { print $1 }' "$bin/want"); do
	cat $(ls "$pkg"/*.go | grep -v '_test\.go$') | wc -l
done >> "$bin/spans"
summary="unreached: $(wc -l < "$bin/want") functions or packages, $(awk '{ n += $1 } END { print n + 0 }' "$bin/spans") lines"
echo "$summary" | tee "$dir.summary"
exit $fail
