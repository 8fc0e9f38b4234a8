#!/usr/bin/env bash
# Fixed read mix for the CI smokes: ROUNDS rounds of six german_syn-shaped
# explain bodies (global, contextual, contextual_global, local, recourse
# and a 2-query batch), sent on each of two keep-alive curl connections.
# Fails unless every answer is a 200.
#
#   .github/read_mix.sh ADDR ENGINE ROUNDS
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: $0 ADDR ENGINE ROUNDS" >&2; exit 64; }
url="http://$1/v1/engines/$2/explain"
rounds=$3
bodies=(
  '{"kind":"global"}'
  '{"kind":"contextual","attr":2,"context":[[1,1]]}'
  '{"kind":"contextual_global","context":[[1,1]]}'
  '{"kind":"local","row":[0,1,0,0,1,2,0]}'
  '{"kind":"recourse","row":[0,0,0,0,0,0,0],"actionable":[2,3]}'
  '{"batch":[{"kind":"global"},{"kind":"local","row":[1,1,2,1,1,5,1]}]}'
)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for ((i = 0; i < rounds; i++)); do
  for body in "${bodies[@]}"; do
    printf 'next\nurl = "%s"\ndata = "%s"\noutput = "/dev/null"\nwrite-out = "%%{http_code}\\n"\n' \
      "$url" "${body//\"/\\\"}"
  done
done | tail -n +2 > "$dir/mix.cfg"
curl -s -K "$dir/mix.cfg" > "$dir/a" || true &
curl -s -K "$dir/mix.cfg" > "$dir/b" || true &
wait
sent=$((2 * rounds * ${#bodies[@]}))
ok=$(cat "$dir/a" "$dir/b" | grep -cx 200 || true)
echo "read mix: $ok/$sent answered 200"
[ "$ok" -eq "$sent" ] || { sort "$dir/a" "$dir/b" | uniq -c >&2; exit 1; }
