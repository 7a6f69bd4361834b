// The rank driver (run_parallel_md_rank) must reproduce the serial
// engine over ANY transport backend to the same tolerance as the
// in-process run_parallel_md: positions to 1e-8, forces to 1e-7.  The TCP case runs
// a real 4-endpoint mesh over loopback (the multi-process equivalent is
// the app-level tools/launch_tcp.sh parity test).

#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "engines/serial_engine.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "net/tcp.hpp"
#include "parallel/comm.hpp"
#include "parallel/parallel_engine.hpp"
#include "potentials/vashishta.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

constexpr int kAtoms = 1500;
constexpr int kSteps = 3;
constexpr double kDt = 1.0 * units::kFemtosecond;

ParticleSystem build_initial() {
  Rng rng(77);
  return make_silica(kAtoms, 2.2, 350.0, rng);
}

struct Reference {
  double energy;
  std::vector<Vec3> pos, force;
};

Reference serial_reference() {
  ParticleSystem sys = build_initial();
  const VashishtaSiO2 field;
  SerialEngineConfig cfg;
  cfg.dt = kDt;
  SerialEngine engine(sys, field, make_strategy("SC", field), cfg);
  for (int s = 0; s < kSteps; ++s) engine.step();
  Reference ref;
  ref.energy = engine.potential_energy();
  ref.pos.assign(sys.positions().begin(), sys.positions().end());
  ref.force.assign(sys.forces().begin(), sys.forces().end());
  return ref;
}

void expect_matches_reference(const ParticleSystem& sys,
                              const ParallelRunResult& res,
                              const Reference& ref) {
  EXPECT_NEAR(res.potential_energy, ref.energy,
              1e-8 * std::abs(ref.energy) + 1e-8);
  for (int i = 0; i < sys.num_atoms(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_NEAR(sys.positions()[i].x, ref.pos[u].x, 1e-8) << i;
    EXPECT_NEAR(sys.positions()[i].y, ref.pos[u].y, 1e-8) << i;
    EXPECT_NEAR(sys.positions()[i].z, ref.pos[u].z, 1e-8) << i;
    EXPECT_NEAR(sys.forces()[i].x, ref.force[u].x, 1e-7) << i;
    EXPECT_NEAR(sys.forces()[i].y, ref.force[u].y, 1e-7) << i;
    EXPECT_NEAR(sys.forces()[i].z, ref.force[u].z, 1e-7) << i;
  }
}

/// Run one rank of the distributed driver over the given endpoint;
/// every rank builds the identical system, rank 0's is compared.
ParallelRunResult run_rank(Transport& transport, ParticleSystem& sys) {
  const VashishtaSiO2 field;
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = kSteps;
  Comm comm(transport);
  return run_parallel_md_rank(sys, field, "SC",
                              ProcessGrid::factor(transport.num_ranks()),
                              cfg, comm);
}

TEST(TransportParityTest, RankDriverOverInProcMatchesSerial) {
  const Reference ref = serial_reference();
  const int P = 4;
  std::vector<ParticleSystem> systems;
  for (int r = 0; r < P; ++r) systems.push_back(build_initial());
  std::vector<ParallelRunResult> results(static_cast<std::size_t>(P));
  run_cluster(P, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    results[r] = run_rank(comm.transport(), systems[r]);
  });
  expect_matches_reference(systems[0], results[0], ref);
  // Non-root results still carry the global reduction.
  EXPECT_NEAR(results[2].potential_energy, ref.energy,
              1e-8 * std::abs(ref.energy) + 1e-8);
}

TEST(TransportParityTest, RankDriverOverTcpMatchesSerial) {
  const Reference ref = serial_reference();
  const int P = 4;
  const auto [rendezvous_fd, rendezvous_port] =
      bind_listener("127.0.0.1", 0);
  std::vector<ParticleSystem> systems;
  for (int r = 0; r < P; ++r) systems.push_back(build_initial());
  std::vector<ParallelRunResult> results(static_cast<std::size_t>(P));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    threads.emplace_back([&, r, rendezvous_fd = rendezvous_fd,
                          rendezvous_port = rendezvous_port] {
      try {
        TcpConfig cfg;
        cfg.rank = r;
        cfg.num_ranks = P;
        cfg.rendezvous_port = rendezvous_port;
        if (r == 0) cfg.rendezvous_fd = rendezvous_fd;
        cfg.recv_timeout_s = 120.0;
        TcpTransport transport(cfg);
        results[static_cast<std::size_t>(r)] =
            run_rank(transport, systems[static_cast<std::size_t>(r)]);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  expect_matches_reference(systems[0], results[0], ref);
}

}  // namespace
}  // namespace scmd
