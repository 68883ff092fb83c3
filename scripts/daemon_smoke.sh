#!/usr/bin/env bash
# Smoke test of `gillian serve`: drives a scripted newline-delimited JSON
# session against the built binary over stdin/stdout and asserts the
# incremental contract on the wire:
#
#   * the first `verify` re-proves every target,
#   * the second (warm, unchanged) `verify` re-proves NOTHING,
#   * an `update_spec` on `inc` dirties exactly its dependency cone
#     (`inc` itself plus its spec-caller `inc2` — never `base`),
#   * the daemon answers `stats` and exits cleanly on `shutdown`,
#   * lint leg: an `update_spec` with an unsatisfiable precondition is
#     rejected with the GL041 finding on the wire and dirties NOTHING, a
#     warn-only edit is accepted with its findings attached, and a `lint`
#     request reports the program's findings without proof search,
#   * chain leg: an `update_spec` whose `ensures` is a flat 100,000-term
#     Pearlite sum (`result@ == x@ + x@ + …`) is rejected with `"ok":false`,
#     and the daemon keeps serving: the next `verify` and the `shutdown`
#     are answered,
#   * long-input leg: requests whose command, workload, mode, target or
#     function name is 100,000 characters long, and a 100,000-character
#     number, are each rejected on a response line under 1 KB, and the
#     `shutdown` after them is answered,
#   * restart leg: a NEW daemon process over the same --cache-dir hydrates
#     every target from disk and its first `verify` re-proves nothing,
#   * SIGTERM leg: a daemon killed with SIGTERM (no `shutdown` request)
#     flushes its proof cache on the way out, and a successor daemon over
#     the same --cache-dir hydrates 100% of the targets and re-proves
#     nothing.
#
# Usage: scripts/daemon_smoke.sh  (from the workspace root)
# Env:   GILLIAN_BIN — path to the binary (default target/release/gillian).

set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${GILLIAN_BIN:-target/release/gillian}"
if [[ ! -x "$BIN" ]]; then
    echo "daemon_smoke: building $BIN" >&2
    cargo build --release -p gillian-server
fi

OUT="$(printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"verify"}' \
    '{"id":3,"cmd":"verify"}' \
    '{"id":4,"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}' \
    '{"id":5,"cmd":"verify"}' \
    '{"id":6,"cmd":"stats"}' \
    '{"id":7,"cmd":"shutdown"}' \
    | "$BIN" serve)"

echo "$OUT"

fail() {
    echo "daemon_smoke: FAIL: $1" >&2
    exit 1
}

# One response line per request, in order.
[[ "$(wc -l <<<"$OUT")" -eq 7 ]] || fail "expected 7 response lines"
line() { sed -n "${1}p" <<<"$OUT"; }

grep -q '"ok":false' <<<"$OUT" && fail "a request errored"

line 1 | grep -q '"targets":\["base","inc","inc2"\]' \
    || fail "load reports the chain targets"
line 2 | grep -q '"all_verified":true' || fail "chain verifies"
line 2 | grep -q '"reverified":\["base","inc","inc2"\]' \
    || fail "cold verify re-proves every target"
line 3 | grep -q '"reverified":\[\]' \
    || fail "warm unchanged verify re-proves nothing"
line 3 | grep -q '"cached":\["base","inc","inc2"\]' \
    || fail "warm verify answers from the cache"
line 4 | grep -q '"dirtied":\["inc","inc2"\]' \
    || fail "spec edit dirties exactly its cone (inc + spec-caller inc2)"
line 5 | grep -q '"reverified":\["inc","inc2"\]' \
    || fail "post-edit verify re-proves exactly the cone"
line 5 | grep -q '"cached":\["base"\]' || fail "base stays cached across the edit"
line 5 | grep -q '"all_verified":true' || fail "the loosened contract still proves"
line 6 | grep -q '"requests_served":6' || fail "stats counts requests"
line 7 | grep -q '"bye":true' || fail "shutdown acknowledged"

# ---- Lint leg: the static analyzer gates edits on the wire. -----------------
# An unsatisfiable precondition (`x@ < 5` and `5 < x@`) is a lint error: the
# edit is rejected with the GL041 finding attached and the dependency cone is
# untouched — the follow-up verify answers everything warm. A warn-only edit
# (an orphaned logical variable in inc2's precondition, GL028) goes through
# with its findings on the wire.

LINT_OUT="$(printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"verify"}' \
    '{"id":3,"cmd":"update_spec","fn":"inc","requires":["x@ < 5","5 < x@"],"ensures":["result@ == x@ + 1"]}' \
    '{"id":4,"cmd":"verify"}' \
    '{"id":5,"cmd":"update_spec","fn":"inc2","requires":["x@ < 900","y@ < 5"],"ensures":["result@ == x@ + 2"]}' \
    '{"id":6,"cmd":"lint"}' \
    '{"id":7,"cmd":"shutdown"}' \
    | "$BIN" serve)"

echo "$LINT_OUT"
lline() { sed -n "${1}p" <<<"$LINT_OUT"; }

lline 1 | grep -q '"lints":\[\]' || fail "lint leg: load reports a clean workload"
lline 3 | grep -q '"ok":false' || fail "lint leg: unsat-pre edit must be rejected"
lline 3 | grep -q '"code":"GL041"' \
    || fail "lint leg: rejection carries the GL041 finding"
lline 4 | grep -q '"reverified":\[\]' \
    || fail "lint leg: rejected edit must not dirty the dependency cone"
lline 4 | grep -q '"all_verified":true' \
    || fail "lint leg: session stays green after a rejected edit"
lline 5 | grep -q '"ok":true' || fail "lint leg: warn-only edit must be accepted"
lline 5 | grep -q '"code":"GL028"' \
    || fail "lint leg: warn-only edit carries its findings"
lline 6 | grep -q '"errors":0' || fail "lint leg: lint request reports no errors"
lline 6 | grep -q '"code":"GL028"' \
    || fail "lint leg: lint request sees the orphaned variable"
lline 7 | grep -q '"bye":true' || fail "lint leg: shutdown acknowledged"

# The CLI gate over the shipped workloads stays spotless (exit 1 on any
# finding, including warnings).
"$BIN" lint --deny-warnings >/dev/null \
    || fail "lint leg: gillian lint found something in a shipped workload"

# ---- Chain leg: a flat chain is rejected, not fatal. -------------------------
# `x@ + x@ + …` has no parentheses, but the sum is a left-deep tree as tall as
# it is long. The parser caps the tree's height as it builds it, so the edit
# is rejected on the wire instead of overflowing the daemon's stack.

CHAIN="$(printf 'x@ + %.0s' $(seq 1 99999))x@"
CHAIN_OUT="$(printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"update_spec","fn":"inc","requires":["x@ < 2000"],"ensures":["result@ == '"$CHAIN"'"]}' \
    '{"id":3,"cmd":"verify"}' \
    '{"id":4,"cmd":"shutdown"}' \
    | "$BIN" serve)" || fail "chain leg: the daemon died on a 100,000-term chain"

cut -c1-200 <<<"$CHAIN_OUT"
[[ "$(wc -l <<<"$CHAIN_OUT")" -eq 4 ]] || fail "chain leg: expected 4 response lines"
cline() { sed -n "${1}p" <<<"$CHAIN_OUT"; }
cline 2 | grep -q '"ok":false' || fail "chain leg: the 100,000-term chain must be rejected"
cline 2 | grep -q 'nests deeper' || fail "chain leg: the rejection names the depth cap"
cline 3 | grep -q '"all_verified":true' \
    || fail "chain leg: verify is answered after the rejected edit"
cline 4 | grep -q '"bye":true' || fail "chain leg: shutdown acknowledged"

# ---- Long-input leg: errors quote a bounded prefix of the request. ---------
# Every error that names a request string (an unknown command, workload,
# mode, target or function, a malformed number) quotes at most a short
# prefix of it, so a 100,000-character value cannot make a 100 KB response.

LONG="$(head -c 100000 </dev/zero | tr '\0' q)"
EEE="$(head -c 100000 </dev/zero | tr '\0' e)"
LONG_OUT="$(printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"'"$LONG"'"}' \
    '{"id":3,"cmd":"load","workload":"'"$LONG"'"}' \
    '{"id":4,"cmd":"load","workload":"chain","mode":"'"$LONG"'"}' \
    '{"id":5,"cmd":"verify","targets":["'"$LONG"'"]}' \
    '{"id":6,"cmd":"update_spec","fn":"'"$LONG"'","requires":["x@ < 2000"],"ensures":["result@ == x@ + 1"]}' \
    '{"id":7,"cmd":"update_fn","fn":"'"$LONG"'"}' \
    '{"id":8,"cmd":"verify","force":1'"$EEE"'}' \
    '{"id":9,"cmd":"shutdown"}' \
    | "$BIN" serve)" || fail "long-input leg: the daemon died"

cut -c1-200 <<<"$LONG_OUT"
[[ "$(wc -l <<<"$LONG_OUT")" -eq 9 ]] || fail "long-input leg: expected 9 response lines"
gline() { sed -n "${1}p" <<<"$LONG_OUT"; }
gline 1 | grep -q '"ok":true' || fail "long-input leg: load chain"
for n in 2 3 4 5 6 7 8; do
    gline "$n" | grep -q '"ok":false' || fail "long-input leg: request $n must be rejected"
    [[ "$(gline "$n" | LC_ALL=C wc -c)" -lt 1024 ]] \
        || fail "long-input leg: response $n is $(gline "$n" | LC_ALL=C wc -c) bytes, not under 1 KB"
done
gline 9 | grep -q '"bye":true' || fail "long-input leg: shutdown acknowledged"

# ---- Restart leg: proofs survive the death of the daemon. -------------------
# Two full daemon lifetimes over one cache directory: the first proves cold
# and persists on shutdown; the second — a fresh process — hydrates from
# disk at `load` and answers its first `verify` without a single re-proof.

CACHE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/gillian-smoke-cache.XXXXXX")"
trap 'rm -rf "$CACHE_DIR"' EXIT

REQS="$(printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"verify"}' \
    '{"id":3,"cmd":"shutdown"}')"

OUT1="$("$BIN" serve --cache-dir "$CACHE_DIR" <<<"$REQS")"
grep -q '"ok":false' <<<"$OUT1" && fail "restart leg: a cold request errored"
sed -n 2p <<<"$OUT1" | grep -q '"reverified":\["base","inc","inc2"\]' \
    || fail "restart leg: cold daemon re-proves every target"

# The first daemon is dead; its proofs are on disk.
[[ -n "$(ls "$CACHE_DIR"/*.rec 2>/dev/null)" ]] \
    || fail "restart leg: shutdown left no records in $CACHE_DIR"

OUT2="$("$BIN" serve --cache-dir "$CACHE_DIR" <<<"$REQS")"
grep -q '"ok":false' <<<"$OUT2" && fail "restart leg: a warm request errored"
sed -n 1p <<<"$OUT2" | grep -q '"hydrated":\["base","inc","inc2"\]' \
    || fail "restart leg: new daemon hydrates every target from disk"
sed -n 2p <<<"$OUT2" | grep -q '"reverified":\[\]' \
    || fail "restart leg: warm daemon re-proves nothing after restart"
sed -n 2p <<<"$OUT2" | grep -q '"cached":\["base","inc","inc2"\]' \
    || fail "restart leg: warm daemon answers every target from hydrated state"

"$BIN" cache stats --dir "$CACHE_DIR" \
    | grep -q '3 hit / 0 miss' || fail "restart leg: cache stats shows the warm run"

# ---- SIGTERM leg: an ungraceful death still persists the proofs. ------------
# The daemon is fed through a FIFO so its stdin stays open while we kill it
# from the outside: load + verify land, then SIGTERM — no `shutdown` request
# ever arrives. The signal handler must flush the proof cache before exiting,
# so a successor daemon over the same directory hydrates every target and its
# first `verify` re-proves nothing.

SIG_DIR="$(mktemp -d "${TMPDIR:-/tmp}/gillian-smoke-sigterm.XXXXXX")"
trap 'rm -rf "$CACHE_DIR" "$SIG_DIR"' EXIT
FIFO="$SIG_DIR/requests.fifo"
mkfifo "$FIFO"

"$BIN" serve --cache-dir "$SIG_DIR/cache" <"$FIFO" >"$SIG_DIR/out" &
SERVE_PID=$!
exec 3>"$FIFO"   # hold the write end open so the daemon keeps serving

printf '%s\n' \
    '{"id":1,"cmd":"load","workload":"chain","workers":1}' \
    '{"id":2,"cmd":"verify"}' >&3

# Wait until both responses are on disk, then pull the rug.
for _ in $(seq 1 300); do
    [[ "$(wc -l <"$SIG_DIR/out")" -ge 2 ]] && break
    sleep 0.1
done
[[ "$(wc -l <"$SIG_DIR/out")" -ge 2 ]] \
    || fail "sigterm leg: daemon never answered load+verify"
sed -n 2p "$SIG_DIR/out" | grep -q '"all_verified":true' \
    || fail "sigterm leg: cold verify did not prove the chain"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "sigterm leg: daemon did not exit cleanly on SIGTERM"
exec 3>&-

[[ -n "$(ls "$SIG_DIR/cache"/*.rec 2>/dev/null)" ]] \
    || fail "sigterm leg: SIGTERM left no records in $SIG_DIR/cache"

SIG_OUT="$("$BIN" serve --cache-dir "$SIG_DIR/cache" <<<"$REQS")"
grep -q '"ok":false' <<<"$SIG_OUT" && fail "sigterm leg: a successor request errored"
sed -n 1p <<<"$SIG_OUT" | grep -q '"hydrated":\["base","inc","inc2"\]' \
    || fail "sigterm leg: successor daemon must hydrate 100% of the targets"
sed -n 2p <<<"$SIG_OUT" | grep -q '"reverified":\[\]' \
    || fail "sigterm leg: successor daemon re-proved something after SIGTERM flush"
sed -n 2p <<<"$SIG_OUT" | grep -q '"cached":\["base","inc","inc2"\]' \
    || fail "sigterm leg: successor daemon must answer everything from the flush"

echo "daemon_smoke: OK (including chain, long-input, restart and SIGTERM legs)"
