// One perturbation per row of the engine's field table
// (engine::ScenarioFields()), keyed by row name, for the declaration tests:
// each moves its field off the value a builtin-derived spec holds and
// leaves a spec BuildGeometry accepts.  A row without an entry here fails
// those tests, so a new field cannot join the table undeclared.
#pragma once

#include <map>
#include <string>

#include "engine/scenario.h"

namespace decaylib::engine {

using SpecPerturbation = void (*)(ScenarioSpec&);

inline const std::map<std::string, SpecPerturbation>& SpecPerturbations() {
  static const std::map<std::string, SpecPerturbation> kPerturbations = {
      {"name", [](ScenarioSpec& s) { s.name += "_renamed"; }},
      {"topology",
       [](ScenarioSpec& s) {
         s.topology = s.topology == "grid" ? "uniform" : "grid";
       }},
      {"links", [](ScenarioSpec& s) { s.links += 1; }},
      {"instances", [](ScenarioSpec& s) { s.instances += 4; }},
      {"alpha", [](ScenarioSpec& s) { s.alpha += 0.5; }},
      {"sigma_db", [](ScenarioSpec& s) { s.sigma_db += 3.0; }},
      {"symmetric_shadowing",
       [](ScenarioSpec& s) { s.symmetric_shadowing = !s.symmetric_shadowing; }},
      {"power_tau", [](ScenarioSpec& s) { s.power_tau += 1.0; }},
      {"beta", [](ScenarioSpec& s) { s.beta += 1.0; }},
      {"noise", [](ScenarioSpec& s) { s.noise += 0.05; }},
      {"zeta", [](ScenarioSpec& s) { s.zeta += 5.0; }},
      {"seed", [](ScenarioSpec& s) { s.seed += 1; }},
      {"hotspots", [](ScenarioSpec& s) { s.hotspots += 1; }},
      {"cluster_sigma", [](ScenarioSpec& s) { s.cluster_sigma += 0.5; }},
      {"corridor_width", [](ScenarioSpec& s) { s.corridor_width += 0.5; }},
      {"kernel_mode",
       [](ScenarioSpec& s) {
         s.kernel_mode = s.kernel_mode == KernelMode::kDense
                             ? KernelMode::kFarField
                             : KernelMode::kDense;
       }},
      {"farfield_epsilon", [](ScenarioSpec& s) { s.farfield_epsilon *= 2.0; }},
      {"lambda", [](ScenarioSpec& s) { s.dynamics.lambda /= 2.0; }},
      {"scheduler",
       [](ScenarioSpec& s) {
         s.dynamics.scheduler =
             s.dynamics.scheduler == dynamics::Scheduler::kRandomAccess
                 ? dynamics::Scheduler::kGreedyByDecay
                 : dynamics::Scheduler::kRandomAccess;
       }},
      {"queue_slots", [](ScenarioSpec& s) { s.dynamics.queue_slots += 10; }},
      {"regret_learning_rate",
       [](ScenarioSpec& s) { s.dynamics.regret_learning_rate /= 2.0; }},
      {"regret_penalty",
       [](ScenarioSpec& s) { s.dynamics.regret_penalty += 1.0; }},
      {"regret_rounds", [](ScenarioSpec& s) { s.dynamics.regret_rounds += 10; }},
  };
  return kPerturbations;
}

}  // namespace decaylib::engine
