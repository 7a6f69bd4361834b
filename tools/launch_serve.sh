#!/usr/bin/env bash
# Launch an N-process scmd_serve TCP pool on this host (docs/SERVICE.md).
#
#   tools/launch_serve.sh <scmd_serve> <nranks> [--key=value ...]
#
# Starts one scmd_serve process per pool rank with --transport=tcp and a
# shared rendezvous port: rank 0 is the daemon (it gets the extra flags —
# --port, --status-port, --dir, resource caps, --metrics-out), ranks 1..
# N-1 are the warm workers.  The daemon's client and status ports are
# echoed once they appear in rank 0's log and also written to
# $LOG_DIR/client_port and $LOG_DIR/status_port, so scripts can submit
# jobs while the pool runs (the script itself blocks until the daemon is
# shut down via `scmd_client shutdown`).
#
# Environment:
#   SCMD_SERVE_PORT     rendezvous port (default: derived from PID)
#   SCMD_SERVE_LOG_DIR  per-rank log directory (default: mktemp -d)
#
# Exit status: 0 when every rank exits 0; otherwise the first non-zero
# rank status, with that rank's log echoed to stderr.
set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 <scmd_serve-binary> <nranks> [--key=value ...]" >&2
    exit 2
fi

BIN=$1
NRANKS=$2
shift 2

if ! [ -x "$BIN" ]; then
    echo "launch_serve: $BIN is not executable" >&2
    exit 2
fi
case $NRANKS in
    ''|*[!0-9]*) echo "launch_serve: nranks must be a number" >&2; exit 2 ;;
esac
if [ "$NRANKS" -lt 2 ]; then
    echo "launch_serve: pool needs >= 2 ranks (daemon + worker)" >&2
    exit 2
fi

# Spread concurrent invocations (CI, parallel ctest) across ports; the
# range keeps clear of the ephemeral range used by outgoing connections.
PORT=${SCMD_SERVE_PORT:-$((20000 + $$ % 10000))}
LOG_DIR=${SCMD_SERVE_LOG_DIR:-$(mktemp -d)}
mkdir -p "$LOG_DIR"
rm -f "$LOG_DIR/client_port" "$LOG_DIR/status_port"

echo "launch_serve: $NRANKS ranks, rendezvous 127.0.0.1:$PORT, logs in $LOG_DIR"

PIDS=""
for RANK in $(seq 0 $((NRANKS - 1))); do
    if [ "$RANK" -eq 0 ]; then
        "$BIN" --transport=tcp --rank=0 --nranks="$NRANKS" \
            --rendezvous=127.0.0.1:"$PORT" "$@" \
            > "$LOG_DIR/rank0.log" 2>&1 &
    else
        "$BIN" --transport=tcp --rank="$RANK" --nranks="$NRANKS" \
            --rendezvous=127.0.0.1:"$PORT" \
            > "$LOG_DIR/rank$RANK.log" 2>&1 &
    fi
    PIDS="$PIDS $!"
done

# Surface the daemon's ports as soon as rank 0 announces them.  A pool
# that fails to bootstrap never prints one; bail out with its log after
# a bounded wait instead of hanging the caller.
TRIES=0
while :; do
    CLIENT_PORT=$(sed -n 's/^# serve: client port \([0-9]*\).*/\1/p' \
        "$LOG_DIR/rank0.log" 2>/dev/null | head -n 1)
    if [ -n "$CLIENT_PORT" ]; then
        echo "$CLIENT_PORT" > "$LOG_DIR/client_port"
        echo "launch_serve: client port $CLIENT_PORT"
        STATUS_PORT=$(sed -n 's/^# serve: status port \([0-9]*\).*/\1/p' \
            "$LOG_DIR/rank0.log" | head -n 1)
        if [ -n "$STATUS_PORT" ]; then
            echo "$STATUS_PORT" > "$LOG_DIR/status_port"
            echo "launch_serve: status port $STATUS_PORT"
        fi
        break
    fi
    if ! kill -0 $PIDS 2>/dev/null; then
        echo "launch_serve: pool died during bootstrap; rank 0 log:" >&2
        cat "$LOG_DIR/rank0.log" >&2
        exit 1
    fi
    TRIES=$((TRIES + 1))
    if [ "$TRIES" -ge 300 ]; then
        echo "launch_serve: no client port after 30s; rank 0 log:" >&2
        cat "$LOG_DIR/rank0.log" >&2
        kill $PIDS 2>/dev/null
        exit 1
    fi
    sleep 0.1
done

STATUS=0
FAILED_RANK=-1
RANK=0
for PID in $PIDS; do
    # `if ! wait` would leave $? as the negation's status (0); capture
    # the rank's own status instead.
    RC=0
    wait "$PID" || RC=$?
    if [ "$RC" -ne 0 ] && [ "$STATUS" -eq 0 ]; then
        STATUS=$RC
        FAILED_RANK=$RANK
    fi
    RANK=$((RANK + 1))
done

if [ "$STATUS" -ne 0 ]; then
    echo "launch_serve: rank $FAILED_RANK failed (exit $STATUS); its log:" >&2
    cat "$LOG_DIR/rank$FAILED_RANK.log" >&2
    exit "$STATUS"
fi

# Rank 0 carries the service report.
cat "$LOG_DIR/rank0.log"
