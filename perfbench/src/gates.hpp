#pragma once

// Correctness gates.  Each returns an empty string when the check passes
// and a reason when it fails; a failed gate fails its operation.

#include <string>

#include "engines/counters.hpp"
#include "md/system.hpp"

namespace perfbench {

/// Relative NVE total-energy drift bound: |E(t) - E(0)| / |E(0)|.
inline constexpr double kDriftBound = 1e-4;

/// Serial-vs-parallel parity tolerances (the TCP parity tests' values):
/// max minimum-image position difference and max force-component
/// difference, absolute.
inline constexpr double kParityPosTol = 1e-8;
inline constexpr double kParityForceTol = 1e-7;

double relative_drift(double e0, double e1);
std::string check_drift(double e0, double e1);

/// `got` matches `ref` atom by atom within the parity tolerances.
std::string check_parity(const scmd::ParticleSystem& ref,
                         const scmd::ParticleSystem& got);

/// Positions and velocities are bitwise equal.
std::string check_bitwise(const scmd::ParticleSystem& ref,
                          const scmd::ParticleSystem& got);

/// Every atom of the gathered final state came back from a rank: its
/// state is finite, inside the box and no longer the input state (the
/// gather overwrites each atom by its global id, so an atom no rank owned
/// keeps its input position and velocity), and the atom count and total
/// momentum are unchanged.
std::string check_atoms_conserved(const scmd::ParticleSystem& initial,
                                  const scmd::ParticleSystem& final_state);

/// The deterministic work counts of two runs of one input agree exactly.
std::string check_same_counts(const scmd::EngineCounters& first,
                              const scmd::EngineCounters& again);

}  // namespace perfbench
