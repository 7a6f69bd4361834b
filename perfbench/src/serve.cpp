// serve_jobs: a ServeDaemon on a 4-rank in-process pool (daemon + 3
// workers) driven by 2 closed-loop clients over its real client socket.
// Each client submits its next job only after the previous one ended, so
// the load is two outstanding jobs.  A job is timed from submit to the
// terminal stream marker, with the stream opened right after the submit
// reply.  Queue wait and run time come from the daemon's job table, read
// once per pool after the timed loops.
//
// The pool is brought up several times per run (set-up is its bootstrap
// plus the client connections).  After the timed loops, every distinct
// job config is rerun directly on run_parallel_md_rank: each served job's
// final state must equal it bitwise.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "ckpt/checkpoint.hpp"
#include "gates.hpp"
#include "inputs.hpp"
#include "net/inproc.hpp"
#include "parallel/comm.hpp"
#include "parallel/parallel_engine.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/runplan.hpp"
#include "serve/worker.hpp"
#include "support/config.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPoolRanks = 4;
constexpr int kClients = 2;
constexpr int kPoolStarts = 5;
constexpr std::size_t kMixLength = 4096;
// At least 100 jobs per run, so that ten or more lie beyond the p90.
constexpr std::size_t kMinJobsPerStart = 20;
// Served and direct runs sum the potential energy over ranks in
// different orders; the state itself must match bitwise.
constexpr double kEnergyRelTol = 1e-12;

struct JobResult {
  int kind = 0;
  std::int64_t id = 0;
  double submit_s = 0, queue_s = 0, run_s = 0, latency_s = 0;
  std::uint64_t stream_bytes = 0;
  scmd::Bytes checkpoint;
  double final_energy = std::numeric_limits<double>::quiet_NaN();
  bool rejected = false;
  std::string failure;
};

/// The number after `"key":` in a JSON object's text, NaN if absent.
double json_number(const std::string& object, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const std::size_t pos = object.find(k);
  if (pos == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(object.c_str() + pos + k.size(), nullptr);
}

/// Submit one job and follow its stream to the terminal marker.  The
/// stream is opened right after the submit reply, so nothing but the
/// daemon stands between the job's end and the client seeing it.
JobResult run_job(scmd::serve::ClientConnection& conn, const JobSpec& spec) {
  JobResult job;
  job.kind = spec.kind;
  scmd::serve::SubmitRequest req;
  req.config_text = spec.config_text;
  req.want_checkpoint = true;
  const Clock::time_point t0 = Clock::now();
  try {
    job.id = conn.submit(req);
  } catch (const std::exception& e) {
    job.rejected = true;
    job.failure = std::string("submit rejected: ") + e.what();
    return job;
  }
  job.submit_s = seconds_since(t0);
  const scmd::serve::StreamEnd end =
      conn.stream(job.id, 0, [&](const scmd::serve::ChunkMsg& c) {
        job.stream_bytes += c.payload.size();
        if (c.kind == scmd::serve::ChunkKind::kCheckpoint) {
          job.checkpoint = c.payload;
        } else if (c.step == spec.steps) {
          // The last step's metrics record (printed with %.17g).
          job.final_energy = json_number(
              std::string(reinterpret_cast<const char*>(c.payload.data()),
                          c.payload.size()),
              "energy.potential");
        }
      });
  job.latency_s = seconds_since(t0);
  if (end.state != scmd::serve::JobState::kDone) {
    job.failure = std::string("job ended ") +
                  scmd::serve::job_state_name(end.state) + ": " + end.error;
  } else if (job.checkpoint.empty()) {
    job.failure = "no final-state chunk streamed";
  } else if (!std::isfinite(job.final_energy)) {
    job.failure = "no metrics record of the last step streamed";
  }
  return job;
}

/// Read the daemon's job table once after a pool's timed loops (one
/// request, outside the closed loop): every streamed job must be done
/// with all its steps, and its row gives the daemon's queue wait
/// (submit to dispatch) and run time (dispatch to finish).
void read_job_table(scmd::serve::ClientConnection& conn,
                    const std::vector<JobSpec>& kinds,
                    std::vector<JobResult>& jobs, std::size_t first) {
  const std::string table = conn.jobs();
  const std::string key = "{\"id\":";
  std::map<std::int64_t, std::string> rows;
  for (std::size_t pos = table.find(key); pos != std::string::npos;) {
    const std::size_t next = table.find(key, pos + 1);
    rows[std::strtoll(table.c_str() + pos + key.size(), nullptr, 10)] =
        table.substr(pos, next - pos);
    pos = next;
  }
  for (std::size_t j = first; j < jobs.size(); ++j) {
    JobResult& job = jobs[j];
    if (!job.failure.empty()) continue;
    const auto it = rows.find(job.id);
    if (it == rows.end()) {
      job.failure = "job missing from the daemon's job table";
      continue;
    }
    const std::string& row = it->second;
    const int steps = kinds[static_cast<std::size_t>(job.kind)].steps;
    if (row.find("\"state\":\"done\"") == std::string::npos ||
        json_number(row, "steps_done") != steps) {
      job.failure = "job table: not done after " + std::to_string(steps) +
                    " steps: " + row;
      continue;
    }
    job.queue_s = json_number(row, "queue_latency_s");
    job.run_s = json_number(row, "runtime_s");
  }
}

/// One warm pool: daemon on rank 0, workers on 1..3.
class Pool {
 public:
  Pool() : cluster_(kPoolRanks), errors_(kPoolRanks) {
    std::promise<int> port;
    std::future<int> port_ready = port.get_future();
    for (int r = 0; r < kPoolRanks; ++r) {
      threads_.emplace_back([this, r, &port] {
        try {
          if (r == 0) {
            scmd::serve::ServeDaemon daemon(cluster_.transport(0),
                                            scmd::serve::DaemonConfig{});
            port.set_value(daemon.client_port());
            daemon.run();
          } else {
            scmd::serve::run_worker(cluster_.transport(r));
          }
        } catch (...) {
          errors_[static_cast<std::size_t>(r)] = std::current_exception();
          if (r == 0) {
            try {
              port.set_exception(std::current_exception());
            } catch (const std::future_error&) {
            }
          }
        }
      });
    }
    try {
      port_ = port_ready.get();
    } catch (const std::exception& e) {
      // The workers block waiting for a daemon that never came up, so
      // they cannot be joined: report and end the process.
      std::cerr << "perfbench_e2e: serve daemon failed to start: " << e.what()
                << "\n";
      std::_Exit(1);
    }
  }

  ~Pool() {
    for (std::thread& t : threads_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int port() const { return port_; }

  /// Join every rank after a client asked the daemon to shut down;
  /// returns the first rank error.
  std::string join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    for (const std::exception_ptr& e : errors_) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        return ex.what();
      }
    }
    return "";
  }

 private:
  scmd::Cluster cluster_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
  int port_ = 0;
};

/// Direct run of a job config on run_parallel_md_rank (what the workers
/// run), over an in-process cluster of the job's width.
struct Direct {
  scmd::ParticleSystem state;
  double potential_energy = 0.0;
};

Direct direct_run(const JobSpec& spec) {
  scmd::serve::JobPlan plan =
      scmd::serve::build_job_plan(scmd::Config::parse(spec.config_text));
  const scmd::ParticleSystem input = std::move(*plan.system);
  Direct out;
  scmd::run_cluster(plan.ranks, [&](scmd::Comm& comm) {
    scmd::ParticleSystem sys = input;
    scmd::ParallelRunConfig cfg;
    cfg.dt = plan.dt;
    cfg.num_steps = plan.steps;
    cfg.tuple_cache = plan.tuple_cache;
    cfg.make_balancer = plan.make_balancer;
    cfg.metrics_every = plan.metrics_every;
    const scmd::ParallelRunResult res = scmd::run_parallel_md_rank(
        sys, *plan.field, plan.strategy, scmd::ProcessGrid::factor(plan.ranks),
        cfg, comm);
    if (comm.rank() == 0) {
      out.state = std::move(sys);
      out.potential_energy = res.potential_energy;
    }
  });
  return out;
}

std::string check_against(const Direct& ref, const JobResult& job) {
  const scmd::ckpt::CheckpointData served =
      scmd::ckpt::decode_checkpoint(job.checkpoint);
  std::string why = check_bitwise(ref.state, served.system);
  if (!why.empty()) return "served state vs direct run: " + why;
  const double e = job.final_energy;
  if (!(std::abs(e - ref.potential_energy) <=
        kEnergyRelTol * std::abs(ref.potential_energy)))
    return "served energy " + std::to_string(e) + " != direct " +
           std::to_string(ref.potential_energy);
  return "";
}

}  // namespace

void run_serve_jobs(const Options& opt, Report& rep) {
  const std::vector<JobSpec> kinds = job_kinds(opt.seed);
  const std::vector<int> mix = job_mix(opt.seed, kMixLength, kinds.size());
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<JobResult> jobs;
  EndToEnd e2e;
  double busy_s = 0.0;  // closed-loop wall time over all pool start-ups

  for (int round = 0; round < kPoolStarts; ++round) {
    const Clock::time_point t0 = Clock::now();
    Pool pool;
    std::vector<std::unique_ptr<scmd::serve::ClientConnection>> conns;
    for (int c = 0; c < kClients; ++c) {
      conns.push_back(std::make_unique<scmd::serve::ClientConnection>(
          "127.0.0.1", pool.port()));
    }
    e2e.setup_s.push_back(seconds_since(t0));

    const std::size_t round_first = jobs.size();
    const Clock::time_point loop_start = Clock::now();
    const double budget = opt.seconds / kPoolStarts;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::size_t min_jobs =
            kMinJobsPerStart * static_cast<std::size_t>(round + 1);
        while (seconds_since(loop_start) < budget || next.load() < min_jobs) {
          const std::size_t k = next.fetch_add(1);
          const JobSpec& spec =
              kinds[static_cast<std::size_t>(mix[k % mix.size()])];
          JobResult job;
          try {
            job = run_job(*conns[static_cast<std::size_t>(c)], spec);
          } catch (const std::exception& e) {
            job.kind = spec.kind;
            job.failure = std::string("client connection: ") + e.what();
          }
          const std::lock_guard<std::mutex> lock(mu);
          jobs.push_back(std::move(job));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    busy_s += seconds_since(loop_start);
    try {
      read_job_table(*conns[0], kinds, jobs, round_first);
    } catch (const std::exception& e) {
      for (std::size_t j = round_first; j < jobs.size(); ++j) {
        if (jobs[j].failure.empty())
          jobs[j].failure = std::string("serve job table: ") + e.what();
      }
    }
    conns[0]->shutdown();
    conns.clear();
    const std::string pool_error = pool.join();
    if (!pool_error.empty()) rep.operation(true, "serve pool: " + pool_error);
  }

  // Correctness: one direct reference per distinct job config.
  std::map<int, Direct> refs;
  for (JobResult& job : jobs) {
    if (!job.failure.empty()) continue;
    const JobSpec& spec = kinds[static_cast<std::size_t>(job.kind)];
    auto it = refs.find(job.kind);
    if (it == refs.end()) it = refs.emplace(job.kind, direct_run(spec)).first;
    job.failure = check_against(it->second, job);
  }

  std::vector<double> submit_ms, queue_s, run_s;
  double stream_bytes = 0, rejected = 0, atom_steps = 0;
  for (const JobResult& job : jobs) {
    rep.operation(!job.failure.empty(), "serve_jobs: " + job.failure);
    if (job.rejected) rejected += 1;
    if (!job.failure.empty()) continue;
    e2e.job_latency_s.push_back(job.latency_s);
    submit_ms.push_back(job.submit_s * 1e3);
    queue_s.push_back(job.queue_s);
    run_s.push_back(job.run_s);
    stream_bytes += static_cast<double>(job.stream_bytes);
    atom_steps += static_cast<double>(
        kAtoms * kinds[static_cast<std::size_t>(job.kind)].steps);
  }
  if (busy_s > 0) e2e.atom_steps_per_s.push_back(atom_steps / busy_s);

  if (!opt.trace) {
    emit_end_to_end(e2e, rep);
    return;
  }
  LayerMetrics m;
  const std::size_t n = e2e.job_latency_s.size();
  m.set("serve.bootstrap_s", median(e2e.setup_s), e2e.setup_s.size());
  m.set("serve.submit_ms_p50", median(submit_ms), n);
  m.set("serve.queue_wait_s_p50", median(queue_s), n);
  m.set("serve.job_run_s_p50", median(run_s), n);
  m.set("serve.job_latency_s_p90", quantile(e2e.job_latency_s, 0.9), n);
  if (busy_s > 0)
    m.set("serve.jobs_per_s", static_cast<double>(n) / busy_s, n);
  if (n > 0) {
    m.set("serve.stream_bytes_per_job",
          stream_bytes / static_cast<double>(n), n);
  }
  m.set("serve.rejected", rejected, jobs.size());
  emit_layer_metrics(m, rep);
}

}  // namespace perfbench
