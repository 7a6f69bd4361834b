#!/usr/bin/env bash
# Launch an N-process scmd_run TCP cluster on this host.
#
#   tools/launch_tcp.sh <scmd_run> <nranks> <config> [--key=value ...]
#
# Starts one scmd_run process per rank with --transport=tcp, a shared
# rendezvous port, and per-rank log files, then waits for all of them.
# Extra flags are forwarded to every rank (rank 0 additionally gets any
# flags in SCMD_TCP_RANK0_ARGS — output artifacts like
# --checkpoint-out=... belong there, although rank 0 is the only writer
# anyway).
#
# A `--respawn` flag (before the binary) re-launches any rank that exits
# non-zero, up to SCMD_TCP_RESPAWN times (default 2) per rank.  Pair it
# with checkpointing (--checkpoint-every/--checkpoint-dir/--restore=auto
# --max-recoveries=N): the respawned rank re-enters the rendezvous the
# surviving ranks' supervisors re-run, restores the last checkpoint with
# them, and the run continues (docs/DURABILITY.md).
#
# Environment:
#   SCMD_TCP_PORT        rendezvous port (default: derived from PID)
#   SCMD_TCP_LOG_DIR     per-rank log directory (default: mktemp -d)
#   SCMD_TCP_RANK0_ARGS  extra flags for rank 0 only
#   SCMD_TCP_RESPAWN     per-rank respawn budget with --respawn (default 2)
#
# Exit status: 0 when every rank exits 0; otherwise the first non-zero
# rank status, with that rank's log echoed to stderr.
set -u

RESPAWN=0
if [ "${1:-}" = "--respawn" ]; then
    RESPAWN=${SCMD_TCP_RESPAWN:-2}
    shift
fi

if [ $# -lt 3 ]; then
    echo "usage: $0 [--respawn] <scmd_run-binary> <nranks> <config> [--key=value ...]" >&2
    exit 2
fi

BIN=$1
NRANKS=$2
CONFIG=$3
shift 3

if ! [ -x "$BIN" ]; then
    echo "launch_tcp: $BIN is not executable" >&2
    exit 2
fi
case $NRANKS in
    ''|*[!0-9]*) echo "launch_tcp: nranks must be a number" >&2; exit 2 ;;
esac

# Spread concurrent invocations (CI, parallel ctest) across ports; the
# range keeps clear of the ephemeral range used by outgoing connections.
PORT=${SCMD_TCP_PORT:-$((20000 + $$ % 10000))}
LOG_DIR=${SCMD_TCP_LOG_DIR:-$(mktemp -d)}
mkdir -p "$LOG_DIR"

echo "launch_tcp: $NRANKS ranks, rendezvous 127.0.0.1:$PORT, logs in $LOG_DIR"

PIDS=""
for RANK in $(seq 0 $((NRANKS - 1))); do
    EXTRA=""
    if [ "$RANK" -eq 0 ] && [ -n "${SCMD_TCP_RANK0_ARGS:-}" ]; then
        EXTRA=$SCMD_TCP_RANK0_ARGS
    fi
    # Each rank runs under a respawn wrapper: a crashed rank (fault
    # injection, OOM kill, ...) is re-launched and joins the re-run
    # rendezvous; rank logs append so the attempts stay visible.
    # shellcheck disable=SC2086  # EXTRA/"$@" are intentionally word-split
    (
        TRIES=0
        while :; do
            "$BIN" "$CONFIG" --transport=tcp --rank="$RANK" \
                --nranks="$NRANKS" --rendezvous=127.0.0.1:"$PORT" "$@" $EXTRA \
                >> "$LOG_DIR/rank$RANK.log" 2>&1
            RC=$?
            [ "$RC" -eq 0 ] && exit 0
            [ "$TRIES" -ge "$RESPAWN" ] && exit "$RC"
            TRIES=$((TRIES + 1))
            echo "launch_tcp: rank $RANK exited $RC; respawn $TRIES/$RESPAWN" \
                >> "$LOG_DIR/rank$RANK.log"
        done
    ) &
    PIDS="$PIDS $!"
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
    echo "launch_tcp: rank $FAILED_RANK failed (exit $STATUS); its log:" >&2
    cat "$LOG_DIR/rank$FAILED_RANK.log" >&2
    exit "$STATUS"
fi

# Rank 0 carries the run report.
cat "$LOG_DIR/rank0.log"
