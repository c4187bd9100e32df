#include "distributed/regret_game.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "sinr/gain_rows.h"
#include "sinr/power.h"

namespace decaylib::distributed {

namespace {

// Shared game driver: sender sampling, the multiplicative-weights update and
// the tail accounting are common code, so at a fixed seed the naive and
// cached paths draw the identical randomness stream and can only differ
// through `judge` -- the per-round SINR success checks, ok[i] for
// senders[i], each path implements against its own machinery.  A round's
// verdicts depend only on its sender set, so they are judged before any
// weight moves.
template <typename JudgeRound>
RegretResult RunRegretLoop(int n, const RegretConfig& config, geom::Rng& rng,
                           JudgeRound&& judge) {
  DL_CHECK(config.rounds >= config.measure_tail && config.measure_tail >= 1,
           "rounds must cover the measurement tail");
  DL_CHECK(config.learning_rate > 0.0 && config.learning_rate < 1.0,
           "learning rate must be in (0,1)");
  DL_CHECK(std::isfinite(config.failure_penalty) &&
               config.failure_penalty >= 0.0,
           "failure penalty must be a non-negative finite cost");

  // Weights for the two actions per link: [transmit, idle].
  std::vector<double> w_tx(static_cast<std::size_t>(n), 1.0);
  std::vector<double> w_idle(static_cast<std::size_t>(n), 1.0);

  RegretResult result;
  long long tail_successes = 0;
  long long tail_transmissions = 0;
  std::vector<int> senders;
  std::vector<char> ok;
  for (int round = 0; round < config.rounds; ++round) {
    senders.clear();
    for (int v = 0; v < n; ++v) {
      const double p = w_tx[static_cast<std::size_t>(v)] /
                       (w_tx[static_cast<std::size_t>(v)] +
                        w_idle[static_cast<std::size_t>(v)]);
      if (rng.Chance(p)) senders.push_back(v);
    }
    judge(senders, ok);
    int successes = 0;
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const int v = senders[i];
      if (ok[i]) ++successes;
      const double utility = ok[i] ? 1.0 : -config.failure_penalty;
      // Multiplicative weights on the realised utility of the played action;
      // idle always has utility 0, so only the transmit weight moves.
      w_tx[static_cast<std::size_t>(v)] *=
          std::exp(config.learning_rate * utility);
      // Keep weights bounded for numeric safety.
      const double scale = w_tx[static_cast<std::size_t>(v)] +
                           w_idle[static_cast<std::size_t>(v)];
      if (scale > 1e100 || scale < 1e-100) {
        w_tx[static_cast<std::size_t>(v)] /= scale;
        w_idle[static_cast<std::size_t>(v)] /= scale;
      }
    }
    if (round >= config.rounds - config.measure_tail) {
      tail_successes += successes;
      tail_transmissions += static_cast<long long>(senders.size());
    }
  }
  result.average_successes =
      static_cast<double>(tail_successes) / config.measure_tail;
  result.transmit_rate = n == 0 ? 0.0
                                : static_cast<double>(tail_transmissions) /
                                      (static_cast<double>(config.measure_tail) * n);
  result.final_transmit_probability.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    result.final_transmit_probability.push_back(
        w_tx[static_cast<std::size_t>(v)] /
        (w_tx[static_cast<std::size_t>(v)] + w_idle[static_cast<std::size_t>(v)]));
  }
  return result;
}

}  // namespace

RegretResult RunRegretGame(const sinr::KernelCache& kernel,
                           const RegretConfig& config, geom::Rng& rng) {
  sinr::GainRows gains(kernel);
  return RunRegretLoop(kernel.NumLinks(), config, rng,
                       [&](const std::vector<int>& senders,
                           std::vector<char>& ok) {
                         gains.Successes(senders, ok);
                       });
}

RegretResult RunRegretGameNaive(const sinr::LinkSystem& system,
                                const RegretConfig& config, geom::Rng& rng) {
  const sinr::PowerAssignment power = sinr::UniformPower(system);
  const double beta = system.config().beta;
  return RunRegretLoop(system.NumLinks(), config, rng,
                       [&](const std::vector<int>& senders,
                           std::vector<char>& ok) {
                         ok.resize(senders.size());
                         for (std::size_t i = 0; i < senders.size(); ++i) {
                           ok[i] = system.Sinr(senders[i], senders, power) >=
                                   beta;
                         }
                       });
}

}  // namespace decaylib::distributed
