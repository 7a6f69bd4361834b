#pragma once

// Generated inputs.  Every input is a pure function of the run's --seed;
// the program under test only ever sees the built ParticleSystem, run
// configs and job config texts.

#include <cstdint>
#include <string>
#include <vector>

#include "md/system.hpp"

namespace perfbench {

inline constexpr long long kAtoms = 6000;
inline constexpr double kDensityGcc = 2.2;
inline constexpr double kTemperatureK = 300.0;
inline constexpr double kDenseFraction = 0.7;

/// Uniform beta-cristobalite silica at 300 K.
scmd::ParticleSystem uniform_silica(std::uint64_t seed);

/// Two-phase silica (dense slab under vapour) whose slab normal lies
/// along x.  make_two_phase_silica squashes along z, but the 4-rank grid
/// ProcessGrid::factor(4) is 2x2x1 and never cuts z, so every rank would
/// hold an equal share of slab and vapour.  A cyclic permutation of the
/// axes (x, y, z) -> (y, z, x) moves the slab normal onto x, an axis the
/// grid splits; the box is cubic, so the permuted system is the same
/// physical input.
scmd::ParticleSystem split_two_phase_silica(std::uint64_t seed);

/// One service job: its config text plus the identity of its input.
struct JobSpec {
  int kind = 0;  ///< index into job_kinds()
  std::string config_text;
  int ranks = 2;
  int steps = 0;
};

/// The distinct job configs of the serve workload for this seed.
std::vector<JobSpec> job_kinds(std::uint64_t seed);

/// Deterministic job order: entry k is the kind of the k-th submission.
std::vector<int> job_mix(std::uint64_t seed, std::size_t length,
                         std::size_t num_kinds);

}  // namespace perfbench
