// Intra-rank threaded enumeration: multi-thread force computation must
// match single-thread results exactly in counters and to numerical noise
// in forces/energies (per-thread buffers reduce in fixed order).

#include <gtest/gtest.h>

#include <cmath>

#include "engines/serial_engine.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "potentials/lj.hpp"
#include "potentials/vashishta.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

struct Result {
  double energy;
  std::vector<Vec3> forces;
  EngineCounters counters;
};

Result run_silica(int threads, const std::string& strategy,
                  bool cached = false) {
  Rng rng(170);
  const VashishtaSiO2 field;
  ParticleSystem sys = make_silica(1536, 2.2, 400.0, rng);
  SerialEngineConfig cfg;
  cfg.num_threads = threads;
  cfg.tuple_cache.enabled = cached;
  cfg.tuple_cache.skin = cached ? 0.5 : 0.0;
  SerialEngine engine(sys, field, make_strategy(strategy, field), cfg);
  return {engine.potential_energy(),
          {sys.forces().begin(), sys.forces().end()}, engine.counters()};
}

class ThreadCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountTest, MatchesSingleThreadedSilica) {
  const int threads = GetParam();
  const Result base = run_silica(1, "SC");
  const Result threaded = run_silica(threads, "SC");

  EXPECT_NEAR(threaded.energy, base.energy, 1e-9 * std::abs(base.energy));
  ASSERT_EQ(threaded.forces.size(), base.forces.size());
  for (std::size_t i = 0; i < base.forces.size(); ++i) {
    EXPECT_NEAR(threaded.forces[i].x, base.forces[i].x, 1e-9) << i;
    EXPECT_NEAR(threaded.forces[i].y, base.forces[i].y, 1e-9) << i;
    EXPECT_NEAR(threaded.forces[i].z, base.forces[i].z, 1e-9) << i;
  }
  // Work counters are partition-invariant.
  EXPECT_EQ(threaded.counters.tuples[2].search_steps,
            base.counters.tuples[2].search_steps);
  EXPECT_EQ(threaded.counters.tuples[3].accepted,
            base.counters.tuples[3].accepted);
  EXPECT_EQ(threaded.counters.evals[2], base.counters.evals[2]);
  EXPECT_EQ(threaded.counters.evals[3], base.counters.evals[3]);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ThreadCountTest,
                         ::testing::Values(2, 3, 4, 8));

TEST(ThreadingTest, DeterministicAcrossRuns) {
  const Result a = run_silica(4, "SC");
  const Result b = run_silica(4, "SC");
  EXPECT_EQ(a.energy, b.energy);  // bitwise: fixed reduction order
  for (std::size_t i = 0; i < a.forces.size(); ++i) {
    EXPECT_EQ(a.forces[i], b.forces[i]) << i;
  }
}

TEST(ThreadingTest, WorksWithFullShellAndTrie) {
  for (const std::string name : {"FS", "SC+p", "FS+p"}) {
    const Result base = run_silica(1, name);
    const Result threaded = run_silica(3, name);
    EXPECT_NEAR(threaded.energy, base.energy, 1e-9 * std::abs(base.energy))
        << name;
    EXPECT_EQ(threaded.counters.tuples[3].chain_candidates,
              base.counters.tuples[3].chain_candidates)
        << name;
  }
}

TEST(ThreadingTest, CachedBuildIsIndependentOfThreadCount) {
  // The priming build records the same list at any thread count (pairs
  // by home slab, n = 3 by walk start layer, concatenated in order) and
  // evaluates it in one sweep, so even the forces match bitwise.
  const Result base = run_silica(1, "SC", true);
  const Result threaded = run_silica(3, "SC", true);
  EXPECT_EQ(threaded.counters.cache_rebuilds, 1u);
  EXPECT_EQ(threaded.counters.tuples[3].chain_candidates,
            base.counters.tuples[3].chain_candidates);
  EXPECT_EQ(threaded.counters.tuples[3].accepted,
            base.counters.tuples[3].accepted);
  EXPECT_EQ(threaded.energy, base.energy);
  ASSERT_EQ(threaded.forces.size(), base.forces.size());
  for (std::size_t i = 0; i < base.forces.size(); ++i) {
    EXPECT_EQ(threaded.forces[i], base.forces[i]) << i;
  }
}

TEST(ThreadingTest, MoreThreadsThanSlabsIsClamped) {
  // A tiny system has fewer z-slabs than requested threads; must still be
  // correct.
  Rng rng(171);
  const LennardJones lj;
  ParticleSystem sys = make_gas(lj, 200, 4.0, 1.0, rng);
  SerialEngineConfig cfg;
  cfg.num_threads = 64;
  SerialEngine engine(sys, lj, make_strategy("SC", lj), cfg);
  EXPECT_GT(engine.counters().tuples[2].accepted, 0u);
}

TEST(ThreadingTest, NveStableWithThreads) {
  Rng rng(172);
  const LennardJones lj;
  ParticleSystem sys = make_gas(lj, 400, 4.0, 0.5, rng);
  SerialEngineConfig cfg;
  cfg.dt = 0.005;
  cfg.num_threads = 4;
  SerialEngine engine(sys, lj, make_strategy("SC", lj), cfg);
  const double e0 = engine.total_energy();
  for (int s = 0; s < 40; ++s) engine.step();
  EXPECT_NEAR(engine.total_energy(), e0, std::abs(e0) * 0.01 + 0.05);
}

TEST(ThreadingTest, RejectsNonPositiveThreadCount) {
  Rng rng(173);
  const LennardJones lj;
  ParticleSystem sys = make_gas(lj, 200, 4.0, 1.0, rng);
  SerialEngineConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(SerialEngine(sys, lj, make_strategy("SC", lj), cfg), Error);
}

}  // namespace
}  // namespace scmd
