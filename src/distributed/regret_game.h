// No-regret capacity game ([1] Asgeirsson-Mitra; extended in [11, 19, 12]).
//
// Every link plays {transmit, idle} with multiplicative-weights updates: the
// utility of transmitting is +1 on success and -penalty on failure, idling
// is worth 0.  On h(zeta)-amicable instances (Theorem 4), the long-run
// average number of concurrent successes is a constant fraction of
// OPT / h(zeta); bench e07/e08 compare the empirical average against
// Algorithm 1 and OPT.
//
// The game runs on a sinr::KernelCache built with KernelSlabs::kCrossDecay:
// each round's success checks read receiver-major gain rows (sinr/
// gain_rows.h) built once from the cached cross decays, so one O(n^2) build
// serves the whole game and no check divides per interference term.  Under
// uniform power the game is bit-identical to the original per-round
// implementation at a fixed seed (the verdicts equal LinkSystem::Sinr >=
// beta and both draw the same randomness stream); that implementation
// survives as RunRegretGameNaive, the test oracle and bench A/B baseline.
#pragma once

#include <vector>

#include "geom/rng.h"
#include "sinr/kernel.h"
#include "sinr/link_system.h"

namespace decaylib::distributed {

struct RegretConfig {
  double learning_rate = 0.1;   // multiplicative-weights eta, in (0, 1)
  double failure_penalty = 1.0; // cost of a failed transmission, >= 0
  int rounds = 2000;
  int measure_tail = 500;       // rounds at the end used for averaging
};

struct RegretResult {
  double average_successes = 0.0;  // mean concurrent successes in the tail
  double transmit_rate = 0.0;      // mean fraction of links transmitting
  std::vector<double> final_transmit_probability;  // per link

  // Bitwise equality over every field: the naive-vs-cached exactness gates
  // (tests, bench_e21) compare whole results, so a new field is covered
  // automatically.
  friend bool operator==(const RegretResult&, const RegretResult&) = default;
};

// Runs the game against a warm kernel (and its power assignment); the
// kernel must hold KernelSlabs::kCrossDecay.
RegretResult RunRegretGame(const sinr::KernelCache& kernel,
                           const RegretConfig& config, geom::Rng& rng);

// Naive reference (per-round LinkSystem::Sinr under uniform power): kept as
// the test oracle and bench A/B baseline for the cached path.
RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng);

}  // namespace decaylib::distributed
