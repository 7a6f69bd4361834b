// scmd_serve — persistent MD-as-a-service daemon (docs/SERVICE.md).
//
// Bootstraps a warm rank pool ONCE, then serves many jobs over the
// client session protocol until a shutdown request drains the queue.
//
//   inproc pool (one process, worker threads):
//     ./scmd_serve --workers=7 [--port=0] [--status-port=0]
//                  [--dir=serve_jobs] [--max-atoms=N] [--max-steps=N]
//                  [--max-walltime-s=S] [--metrics-out=serve.jsonl]
//
//   tcp pool (one process per pool rank, tools/launch_serve.sh):
//     rank 0:   ./scmd_serve --transport=tcp --rank=0 --nranks=8
//                  --rendezvous=host:port [client flags as above]
//     rank i>0: ./scmd_serve --transport=tcp --rank=i --nranks=8
//                  --rendezvous=host:port
//
// On startup the daemon prints one machine-readable line per bound
// port:
//     # serve: client port <P>
//     # serve: status port <Q>        (with --status-port)
// then blocks until a client sends shutdown (scmd_client shutdown).
//
// Flags:
//   --workers=N        inproc pool size (pool has N worker ranks + the
//                      daemon rank; every job runs on a subset)
//   --port=P           client protocol port (default 0 = ephemeral)
//   --status-port=P    serve "status"/"jobs" channels for
//                      tools/scmd_top.py --jobs (default: off)
//   --dir=PATH         job artifact root: per-job checkpoint dirs,
//                      traces, and resume-by-id live here (default: off)
//   --max-atoms=N      reject jobs larger than N atoms (default: no cap)
//   --max-steps=N      reject jobs longer than N steps (default: no cap)
//   --max-walltime-s=S cap every job's walltime at S seconds
//   --metrics-out=PATH daemon-level serve.* metrics JSONL
//   --transport=...    inproc (default) | tcp
//   --rank/--nranks/--rendezvous/--advertise-host/--connect-timeout-s
//                      tcp pool bootstrap, exactly as scmd_run

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "serve/daemon.hpp"
#include "serve/worker.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

namespace {

using namespace scmd;

int serve_main(const Config& cfg) {
  cfg.require_known({"workers", "port", "status_port", "dir", "max_atoms",
                     "max_steps", "max_walltime_s", "metrics_out",
                     "transport", "rank", "nranks", "rendezvous",
                     "advertise_host", "connect_timeout_s"});

  serve::DaemonConfig dcfg;
  dcfg.client_port = static_cast<int>(cfg.get_int("port", 0));
  dcfg.status_port =
      cfg.has("status_port")
          ? static_cast<int>(cfg.get_int("status_port", 0))
          : -1;
  dcfg.dir = cfg.get("dir", "");
  dcfg.limits.max_atoms = cfg.get_int("max_atoms", 0);
  dcfg.limits.max_steps = cfg.get_int("max_steps", 0);
  dcfg.limits.max_walltime_s = cfg.get_double("max_walltime_s", 0.0);

  std::unique_ptr<obs::MetricsRegistry> metrics;
  if (cfg.has("metrics_out")) {
    metrics = std::make_unique<obs::MetricsRegistry>();
    metrics->add_sink(
        std::make_unique<obs::JsonlSink>(cfg.get("metrics_out", "")));
    dcfg.metrics = metrics.get();
  }

  const std::string transport = cfg.get("transport", "inproc");
  SCMD_REQUIRE(transport == "inproc" || transport == "tcp",
               "transport must be inproc | tcp, got: " + transport);

  if (transport == "tcp") {
    // One pool rank per process; rank 0 is the daemon.
    const int rank = static_cast<int>(cfg.get_int("rank", -1));
    const int nranks = static_cast<int>(cfg.get_int("nranks", 0));
    SCMD_REQUIRE(nranks >= 2 && rank >= 0 && rank < nranks,
                 "tcp pool needs rank in [0, nranks) and nranks >= 2");
    SCMD_REQUIRE(cfg.has("rendezvous"),
                 "tcp pool needs rendezvous=host:port");
    SCMD_REQUIRE(!cfg.has("workers"),
                 "tcp pools take their size from nranks, not workers");
    TcpConfig tc;
    tc.rank = rank;
    tc.num_ranks = nranks;
    const std::string rv = cfg.get("rendezvous", "");
    const auto colon = rv.rfind(':');
    SCMD_REQUIRE(colon != std::string::npos && colon > 0 &&
                     colon + 1 < rv.size(),
                 "rendezvous must be host:port, got: " + rv);
    tc.rendezvous_host = rv.substr(0, colon);
    tc.rendezvous_port = std::stoi(rv.substr(colon + 1));
    tc.advertise_host = cfg.get("advertise_host", "127.0.0.1");
    tc.connect_timeout_s = cfg.get_double("connect_timeout_s", 30.0);
    // A warm pool idles between jobs for arbitrarily long: never time
    // out a pool recv.  Dead peers are still detected by socket state.
    tc.recv_timeout_s = 0.0;

    TcpTransport pool(tc);
    if (rank == 0) {
      serve::ServeDaemon daemon(pool, dcfg);
      std::printf("# serve: pool of %d worker(s) ready (tcp)\n", nranks - 1);
      std::printf("# serve: client port %d\n", daemon.client_port());
      if (daemon.status_port() >= 0)
        std::printf("# serve: status port %d (tools/scmd_top.py --jobs "
                    "--port %d)\n",
                    daemon.status_port(), daemon.status_port());
      std::fflush(stdout);
      daemon.run();
      std::printf("# serve: drained, shutting down\n");
    } else {
      serve::run_worker(pool);
    }
    return 0;
  }

  // inproc pool: the daemon plus `workers` worker threads in this
  // process, sharing an in-process cluster.
  SCMD_REQUIRE(!cfg.has("rank") && !cfg.has("nranks") &&
                   !cfg.has("rendezvous"),
               "rank/nranks/rendezvous need transport=tcp");
  const int workers = static_cast<int>(cfg.get_int("workers", 4));
  SCMD_REQUIRE(workers >= 1, "the pool needs workers >= 1");
  Cluster cluster(workers + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 1; w <= workers; ++w)
    threads.emplace_back(
        [&cluster, w] { serve::run_worker(cluster.transport(w)); });

  serve::ServeDaemon daemon(cluster.transport(0), dcfg);
  std::printf("# serve: pool of %d worker(s) ready (inproc)\n", workers);
  std::printf("# serve: client port %d\n", daemon.client_port());
  if (daemon.status_port() >= 0)
    std::printf("# serve: status port %d (tools/scmd_top.py --jobs "
                "--port %d)\n",
                daemon.status_port(), daemon.status_port());
  std::fflush(stdout);
  daemon.run();
  for (std::thread& t : threads) t.join();
  std::printf("# serve: drained, shutting down\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: flags take the form --key=value: %s\n",
                   arg.c_str());
      return 2;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 2) {
      std::fprintf(stderr, "error: flags take the form --key=value: %s\n",
                   arg.c_str());
      return 2;
    }
    std::string key = arg.substr(2, eq - 2);
    for (char& c : key) {
      if (c == '-') c = '_';
    }
    cfg.set(key, arg.substr(eq + 1));
  }
  try {
    return serve_main(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
