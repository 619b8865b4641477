#!/usr/bin/env bash
# CI smoke test for `roccc serve`: drive a scripted session — a compile,
# a draining health probe, a cache-warm repeat, a malformed line, a
# deadline miss, a final health probe and a request that hits an injected
# fault — and assert every line got a structured response and the server
# drained cleanly.
set -euo pipefail

ROCCC=${ROCCC:-_build/default/bin/roccc.exe}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

KERNEL='void k(int A[8], int B[8]) { int i; for (i = 0; i < 8; i = i + 1) { B[i] = A[i] * 3 + 1; } }'

cat > "$WORK/session.jsonl" <<EOF
{"id":"c1","source":"$KERNEL","entry":"k"}
{"id":"h0","type":"health","drain":true}
{"id":"c2","source":"$KERNEL","entry":"k"}
{"id":"bad","source":"void k(int A[4]) { A[0] = }","entry":"k"}
{this is not json
{"id":"dl","source":"$KERNEL","entry":"k","deadline_ms":0.0001}
{"id":"h","type":"health","drain":true}
EOF
# h0 waits until c1 has finished, so c2 reads c1's cached result instead
# of racing it (a racing c2 is coalesced onto c1's flight, not "warm")

# scheduler_claim at rate 1.0 fires on every worker claim: every compile
# comes back as a structured injected_fault error, never a crash.
"$ROCCC" serve --jobs 2 --cache --cache-dir "$WORK/cache" \
  --inject-fault scheduler_claim \
  < "$WORK/session.jsonl" > "$WORK/faulted.jsonl" 2> "$WORK/faulted.log"

# and the same session healthy end-to-end
"$ROCCC" serve --jobs 2 --cache --cache-dir "$WORK/cache" \
  < "$WORK/session.jsonl" > "$WORK/clean.jsonl" 2> "$WORK/clean.log"

fail() { echo "serve_smoke: FAIL: $1" >&2; cat "$WORK"/*.jsonl >&2; exit 1; }

for out in faulted clean; do
  n=$(wc -l < "$WORK/$out.jsonl")
  [ "$n" -eq 7 ] || fail "$out: expected 7 responses, got $n"
  grep -q '"kind":"bad_request".*malformed JSON' "$WORK/$out.jsonl" \
    || fail "$out: malformed line not answered"
  grep -q '"id":"h","status":"ok","health"' "$WORK/$out.jsonl" \
    || fail "$out: no health snapshot"
  grep -q 'drained after' "$WORK/$out.log" || fail "$out: no clean drain"
done

# rate-1.0 claim faults hit every worker-handled request — all four come
# back as structured injected_fault errors (health probes are not
# claimed), and the last health snapshot records the firings
for id in c1 c2 bad dl; do
  grep -q "\"id\":\"$id\",\"status\":\"error\",\"kind\":\"injected_fault\"" \
    "$WORK/faulted.jsonl" || fail "$id: injected fault not structured"
done
grep -q '"scheduler_claim":{"calls":4,"fired":4}' "$WORK/faulted.jsonl" \
  || fail "health snapshot missing fault counts"
grep -q '"id":"bad".*"kind":"compile"' "$WORK/clean.jsonl" \
  || fail "no structured compile error"
grep -q '"id":"dl","status":"deadline_exceeded"' "$WORK/clean.jsonl" \
  || fail "deadline miss not structured"
grep -q '"id":"c1","status":"ok"' "$WORK/clean.jsonl" || fail "c1 did not compile"
grep -q '"id":"c2","status":"ok"' "$WORK/clean.jsonl" || fail "c2 did not compile"
# c2 is byte-identical to c1, so the healthy run must see a cache hit
grep -q '"id":"c2","status":"ok".*"origin":"warm' "$WORK/clean.jsonl" \
  || fail "repeat compile missed the cache"

# invalid resource flags are friendly usage errors (exit 2)
set +e
"$ROCCC" serve --jobs=-1 < /dev/null 2> "$WORK/usage.log"; rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--jobs=-1 exited $rc, want 2"
grep -q 'positive integer' "$WORK/usage.log" || fail "--jobs=-1 message unhelpful"

# --jobs 0 means auto: the session runs, and health reports both the
# configured count (0) and the effective one the pool resolved it to
printf '{"id":"h","type":"health"}\n' \
  | "$ROCCC" serve --jobs 0 > "$WORK/auto.jsonl" 2> "$WORK/auto.log"
grep -q '"workers":{"configured":0,"effective":[1-9]' "$WORK/auto.jsonl" \
  || fail "--jobs 0 did not resolve to an effective worker count"

echo "serve_smoke: OK"
