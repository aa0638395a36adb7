#!/usr/bin/env bash
# Smoke-test the distributed path: two cvopt-shardd shard servers on
# ephemeral ports, a cvopt-served coordinator registering the smoke table
# *remotely* across them, and the serve_smoke.sh transcript replayed on
# top. The determinism contract says the network must be invisible in the
# bytes: after normalizing the one field that reports the topology
# (`remote_shards`) and the process-wide network counters in /stats, every
# response must byte-match the committed local goldens in
# crates/serve/golden/.
#
# Usage:
#   scripts/shardd_smoke.sh [--served path] [--shardd path]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/smoke_lib.sh

SERVED=target/release/cvopt-served
SHARDD=target/release/cvopt-shardd
while [ $# -gt 0 ]; do
  case "$1" in
    --served) SERVED="$2"; shift 2 ;;
    --shardd) SHARDD="$2"; shift 2 ;;
    *) echo "unknown argument '$1'"; exit 2 ;;
  esac
done
GOLDEN=crates/serve/golden
smoke_init

# ── Two shard servers on ephemeral ports ────────────────────────────────
launch_bg "$OUT/shardd_a.log" "$SHARDD" --port 0 --workers 2
ADDR_A=$(scrape_addr "$OUT/shardd_a.log")
launch_bg "$OUT/shardd_b.log" "$SHARDD" --port 0 --workers 2
ADDR_B=$(scrape_addr "$OUT/shardd_b.log")
echo "cvopt-shardd pair up on $ADDR_A and $ADDR_B"

# ── The coordinator, configured exactly like serve_smoke.sh ─────────────
launch_bg "$OUT/server.log" "$SERVED" --port 0 --workers 2 --threads 2 --queue 16 --seed 7
BASE="http://$(scrape_addr "$OUT/server.log")"
echo "cvopt-served up on $BASE"

# The serve_smoke transcript, with the table's two shards registered over
# the wire (one per shard server) instead of in-process.
QUERY='{"sql":"SELECT country, AVG(value) FROM openaq GROUP BY country","mode":"approximate"}'
EXPLAIN='/explain?sql=SELECT%20country,%20AVG(value)%20FROM%20openaq%20GROUP%20BY%20country&mode=approximate'

curl -sS "$BASE/healthz" >"$OUT/healthz.json"
curl -sS -X POST "$BASE/tables" \
  -d "{\"name\":\"openaq\",\"generated\":\"openaq\",\"rows\":20000,\"shards\":2,\"remote\":[\"$ADDR_A\",\"$ADDR_B\"]}" \
  >"$OUT/tables.json"
curl -sS -X POST "$BASE/query" -d "$QUERY" >"$OUT/query_miss.json"
curl -sS -X POST "$BASE/query" -d "$QUERY" >"$OUT/query_hit.json"
curl -sS "$BASE$EXPLAIN"                   >"$OUT/explain.json"
curl -sS "$BASE/stats"                     >"$OUT/stats.json"

# The traffic really went over the wire: the coordinator's network
# counters must show the registration and the scatter-gather passes.
grep -q '"net_requests":0' "$OUT/stats.json" && {
  echo "MISMATCH: /stats shows no network traffic:"; cat "$OUT/stats.json"; exit 1; }
grep -q '"net_bytes_sent":0' "$OUT/stats.json" && {
  echo "MISMATCH: /stats shows no bytes sent:"; cat "$OUT/stats.json"; exit 1; }

# Normalize the things that legitimately differ from the local run: the
# explain topology field, and the process-wide network counters.
for f in query_miss query_hit explain; do
  sed -i 's/"remote_shards":2/"remote_shards":null/' "$OUT/$f.json"
done
sed -i -E 's/"(net_requests|net_retries|net_circuit_opens|net_bytes_sent|net_bytes_received)":[0-9]+/"\1":0/g' \
  "$OUT/stats.json"

diff_golden "$GOLDEN" "$OUT" healthz tables query_miss query_hit explain stats \
  && echo "shardd smoke OK: remote answers are byte-identical to local"
