#!/usr/bin/env python3
"""Tests for tools/launch_tcp.sh and tools/launch_serve.sh: a rank that
exits non-zero must make the launcher exit non-zero with that status.
The ranks are a stub script, so no cluster is started.  Stdlib unittest
only."""

import os
import stat
import subprocess
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")

# Rank 1 fails with status 3; rank 0 succeeds and, like a serve daemon,
# announces a client port.  Under launch_serve, rank 1 fails only after
# the launcher has seen the port (it writes client_port), so the failure
# lands in the final wait rather than the bootstrap check.
STUB = """#!/usr/bin/env bash
RANK=
for a in "$@"; do
    case $a in --rank=*) RANK=${a#--rank=} ;; esac
done
if [ "$RANK" = 0 ]; then
    echo "# serve: client port 1"
    exit 0
fi
if [ -n "${SCMD_SERVE_LOG_DIR:-}" ]; then
    for _ in $(seq 100); do
        [ -f "$SCMD_SERVE_LOG_DIR/client_port" ] && break
        sleep 0.1
    done
fi
exit 3
"""


class LauncherExitStatusTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.stub = os.path.join(self.tmp.name, "rank_stub")
        with open(self.stub, "w") as f:
            f.write(STUB)
        os.chmod(self.stub, os.stat(self.stub).st_mode | stat.S_IXUSR)
        self.logs = os.path.join(self.tmp.name, "logs")

    def tearDown(self):
        self.tmp.cleanup()

    def launch(self, script, args, env):
        full_env = dict(os.environ, **env)
        return subprocess.run(["bash", os.path.join(TOOLS, script)] + args,
                              env=full_env, capture_output=True, text=True,
                              timeout=60)

    def test_launch_tcp_reports_failing_rank(self):
        res = self.launch("launch_tcp.sh", [self.stub, "2", "unused.conf"],
                          {"SCMD_TCP_LOG_DIR": self.logs})
        self.assertEqual(res.returncode, 3, res.stderr)
        self.assertIn("rank 1 failed (exit 3)", res.stderr)

    def test_launch_serve_reports_failing_rank(self):
        res = self.launch("launch_serve.sh", [self.stub, "2"],
                          {"SCMD_SERVE_LOG_DIR": self.logs})
        self.assertEqual(res.returncode, 3, res.stderr)
        self.assertIn("rank 1 failed (exit 3)", res.stderr)


if __name__ == "__main__":
    unittest.main()
