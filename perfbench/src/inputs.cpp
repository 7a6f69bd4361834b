#include "inputs.hpp"

#include <sstream>

#include "md/builders.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

scmd::Vec3 rotate_axes(const scmd::Vec3& v) { return {v.z, v.x, v.y}; }

}  // namespace

scmd::ParticleSystem uniform_silica(std::uint64_t seed) {
  scmd::Rng rng(seed);
  return scmd::make_silica(kAtoms, kDensityGcc, kTemperatureK, rng);
}

scmd::ParticleSystem split_two_phase_silica(std::uint64_t seed) {
  scmd::Rng rng(seed);
  const scmd::ParticleSystem slab_z = scmd::make_two_phase_silica(
      kAtoms, kDenseFraction, kDensityGcc, kTemperatureK, rng);
  std::vector<double> masses;
  for (int t = 0; t < slab_z.num_types(); ++t)
    masses.push_back(slab_z.mass_of_type(t));
  scmd::ParticleSystem sys(slab_z.box(), std::move(masses));
  for (int i = 0; i < slab_z.num_atoms(); ++i) {
    sys.add_atom(rotate_axes(slab_z.positions()[i]),
                 rotate_axes(slab_z.velocities()[i]), slab_z.types()[i]);
  }
  return sys;
}

std::vector<JobSpec> job_kinds(std::uint64_t seed) {
  // Two inputs x two job widths.  Served jobs always run
  // run_parallel_md_rank, so a job takes ranks >= 2; the pool has three
  // workers, so a 3-rank job queues behind any running job.
  constexpr int kSteps = 20;
  std::vector<JobSpec> kinds;
  for (int input = 0; input < 2; ++input) {
    for (int ranks = 2; ranks <= 3; ++ranks) {
      std::ostringstream cfg;
      cfg << "field = vashishta\n"
          << "strategy = SC\n"
          << "atoms = " << kAtoms << "\n"
          << "steps = " << kSteps << "\n"
          << "ranks = " << ranks << "\n"
          << "seed = " << (seed % 1000000) * 2 + 1 + input << "\n"
          << "dt_fs = 0.5\n"
          << "tuple_cache = skin=0.5\n";
      kinds.push_back(
          {static_cast<int>(kinds.size()), cfg.str(), ranks, kSteps});
    }
  }
  return kinds;
}

std::vector<int> job_mix(std::uint64_t seed, std::size_t length,
                         std::size_t num_kinds) {
  scmd::Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<int> mix(length);
  for (int& k : mix) k = static_cast<int>(rng.uniform_index(num_kinds));
  return mix;
}

}  // namespace perfbench
