// perfbench_selftest: the benchmark's correctness gates pass a correct
// final state and fail a perturbed one, a failed gate turns the result
// line to "correct": false, and the probe and the exclusive-time table
// account exactly.  Exits 0 when every check holds.
//
// Run: python3 perfbench/run.py --selftest

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engines/serial_engine.hpp"
#include "gates.hpp"
#include "layers.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "net/inproc.hpp"
#include "net/tags.hpp"
#include "parallel/comm.hpp"
#include "parallel/parallel_engine.hpp"
#include "potentials/vashishta.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "support/rng.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

constexpr int kSteps = 5;
constexpr double kDtFs = 0.5;

scmd::ParticleSystem small_silica() {
  scmd::Rng rng(7);
  return scmd::make_silica(648, 2.2, 300.0, rng);
}

struct SerialResult {
  scmd::ParticleSystem state;
  double e0 = 0.0, e1 = 0.0;
};

SerialResult serial_run(const scmd::ParticleSystem& input) {
  const scmd::VashishtaSiO2 field;
  SerialResult out;
  out.state = input;
  scmd::SerialEngineConfig cfg;
  cfg.dt = kDtFs * scmd::units::kFemtosecond;
  scmd::SerialEngine engine(out.state, field, scmd::make_strategy("SC", field),
                            cfg);
  out.e0 = engine.total_energy();
  for (int s = 0; s < kSteps; ++s) engine.step();
  out.e1 = engine.total_energy();
  return out;
}

/// The same run on run_parallel_md_rank over 2 in-process ranks.
scmd::ParticleSystem parallel_run(const scmd::ParticleSystem& input) {
  const scmd::VashishtaSiO2 field;
  scmd::ParticleSystem root_state;
  scmd::run_cluster(2, [&](scmd::Comm& comm) {
    scmd::ParticleSystem sys = input;
    scmd::ParallelRunConfig cfg;
    cfg.dt = kDtFs * scmd::units::kFemtosecond;
    cfg.num_steps = kSteps;
    scmd::run_parallel_md_rank(sys, field, "SC", scmd::ProcessGrid::factor(2),
                               cfg, comm);
    if (comm.rank() == 0) root_state = std::move(sys);
  });
  return root_state;
}

void test_gates() {
  using namespace perfbench;
  const scmd::ParticleSystem input = small_silica();
  const SerialResult ref = serial_run(input);
  const scmd::ParticleSystem got = parallel_run(input);

  expect(check_drift(ref.e0, ref.e1).empty(),
         "serial NVE run passes the drift gate");
  expect(!check_drift(ref.e0, ref.e0 * (1 + 10 * kDriftBound)).empty(),
         "an energy jump fails the drift gate");
  expect(check_parity(ref.state, got).empty(), "parallel run matches serial");
  expect(check_atoms_conserved(input, got).empty(),
         "parallel run conserves atoms");

  scmd::ParticleSystem moved = got;
  moved.positions()[17].x += 1e-6;
  expect(!check_parity(ref.state, moved).empty(), "a moved atom fails parity");

  scmd::ParticleSystem pushed = got;
  pushed.forces()[17].y += 1e-6;
  expect(!check_parity(ref.state, pushed).empty(),
         "a changed force fails parity");

  scmd::ParticleSystem lost = got;
  lost.positions()[42] = input.positions()[42];
  lost.velocities()[42] = input.velocities()[42];
  expect(!check_atoms_conserved(input, lost).empty(),
         "an atom left at its input state fails conservation");

  scmd::ParticleSystem kicked = got;
  kicked.velocities()[3].z += 1e-3;
  expect(!check_atoms_conserved(input, kicked).empty(),
         "a momentum change fails conservation");

  scmd::ParticleSystem ulp = got;
  ulp.velocities()[5].x = std::nextafter(ulp.velocities()[5].x, 1e9);
  expect(check_bitwise(got, got).empty(), "a state equals itself bitwise");
  expect(!check_bitwise(got, ulp).empty(),
         "a one-ulp change fails the bitwise gate");

  scmd::EngineCounters a, b;
  a.cache_rebuilds = 3;
  b = a;
  expect(check_same_counts(a, b).empty(), "equal counts pass");
  b.tuples[2].search_steps += 1;
  expect(!check_same_counts(a, b).empty(), "a different search count fails");
}

void test_report() {
  perfbench::Report rep;
  rep.operation(false);
  rep.operation(true, "perturbed state");
  rep.metric("setup_s", 1.5, "s", 2);
  std::ostringstream captured;
  std::streambuf* old = std::cout.rdbuf(captured.rdbuf());
  rep.print();
  std::cout.rdbuf(old);
  const std::string out = captured.str();
  expect(out.find("{\"correct\": false, \"attempted\": 2, \"failed\": 1") !=
             std::string::npos,
         "a failed operation makes the result line incorrect");
}

void test_probe() {
  scmd::Cluster cluster(2);
  perfbench::ProbeTransport probe(cluster.transport(0));
  probe.send(1, scmd::tags::import_tag(0), scmd::Bytes(100));
  probe.send(1, scmd::tags::import_tag(3), scmd::Bytes(20));
  probe.send(1, scmd::tags::kTelemetry, scmd::Bytes(7));
  cluster.transport(1).send(0, scmd::tags::kSnapshotAtoms, scmd::Bytes(40));
  (void)probe.recv(1, scmd::tags::kSnapshotAtoms);
  const perfbench::NetTally t = probe.tally();
  expect(t.messages("import") == 2 && t.bytes("import") == 120,
         "probe counts import-window messages and bytes");
  expect(t.bytes("telemetry") == 7 && t.messages() == 3,
         "probe counts every window");
  expect(t.windows[perfbench::window_of(scmd::tags::kSnapshotAtoms)]
                 .bytes_received == 40,
         "probe counts received bytes per window");
}

void test_layers() {
  // Two steps on one lane; the first holds a force span with a search
  // child, and the gap between the steps is unattributed.
  const std::vector<scmd::obs::TraceEvent> events = {
      {"force", 0, 0.0, 5.0},    // priming pass
      {"step", 0, 10.0, 20.0},   {"force", 0, 12.0, 15.0},
      {"search.n2", 0, 13.0, 10.0}, {"step", 0, 35.0, 10.0},
      {"integrate.kick", 0, 40.0, 4.0},
  };
  const std::vector<perfbench::LaneTable> t =
      perfbench::exclusive_tables(events);
  expect(t.size() == 1 && t[0].steps == 2, "layer table finds the steps");
  double sum = t[0].unattributed_us;
  for (const auto& [row, us] : t[0].self_us) sum += us;
  expect(std::abs(sum - t[0].window_us) < 1e-9 && t[0].window_us == 35.0,
         "rows plus unattributed sum to the traced window");
  expect(t[0].self_us.at("tuples.build.n2") == 10.0 &&
             t[0].self_us.at("engines.force") == 5.0 &&
             t[0].self_us.at("engines.step") == 5.0 + 6.0 &&
             t[0].unattributed_us == 5.0 && t[0].prime_us == 5.0,
         "self time is duration minus direct children");
}

}  // namespace

int main() {
  test_gates();
  test_report();
  test_probe();
  test_layers();
  std::cout << (g_failures == 0 ? "selftest passed" : "selftest FAILED")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}
