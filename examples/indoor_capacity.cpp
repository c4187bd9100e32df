// Indoor capacity planning: a floor plan with mixed materials, directional
// access points, reflections -- the "realistic environment" the paper's
// introduction motivates -- driven end to end to capacity and scheduling.
//
//   $ ./indoor_capacity
#include <cstdio>

#include "capacity/algorithm1.h"
#include "capacity/baselines.h"
#include "core/metricity.h"
#include "env/antenna.h"
#include "env/propagation.h"
#include "scheduling/scheduler.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  // A 30m x 15m office: concrete shell, two drywall partitions with doors,
  // one glass meeting room.
  env::Environment office;
  const env::MaterialId concrete =
      office.AddMaterial({"concrete", 12.0, 0.5});
  const env::MaterialId glass = office.AddMaterial({"glass", 3.0, 0.65});
  office.AddRoom({0.0, 0.0}, {30.0, 15.0}, concrete);
  office.AddWall({{10.0, 0.0}, {10.0, 6.0}});
  office.AddWall({{10.0, 9.0}, {10.0, 15.0}});
  office.AddWall({{20.0, 0.0}, {20.0, 6.0}});
  office.AddWall({{20.0, 9.0}, {20.0, 15.0}});
  office.AddRoom({22.0, 10.0}, {28.0, 14.0}, glass);

  // Three sector APs along the spine, each serving a client; plus four
  // isotropic peer-to-peer links.
  const env::SectorAntenna sector(M_PI * 2.0 / 3.0, 0.05);
  std::vector<env::PlacedNode> nodes;
  std::vector<sinr::Link> links;
  auto add_link = [&](env::PlacedNode sender, env::PlacedNode receiver) {
    nodes.push_back(sender);
    nodes.push_back(receiver);
    links.push_back({static_cast<int>(nodes.size()) - 2,
                     static_cast<int>(nodes.size()) - 1});
  };
  add_link({{5.0, 13.0}, {0.0, -1.0}, &sector}, {{4.0, 3.0}});
  add_link({{15.0, 13.0}, {0.0, -1.0}, &sector}, {{15.5, 4.0}});
  add_link({{25.0, 13.0}, {0.0, -1.0}, &sector}, {{25.0, 11.5}});
  add_link({{2.0, 2.0}}, {{3.5, 2.5}});
  add_link({{12.0, 2.0}}, {{13.0, 3.0}});
  add_link({{22.0, 2.0}}, {{23.0, 2.0}});
  add_link({{27.0, 5.0}}, {{28.5, 5.5}});

  env::PropagationConfig config;
  config.alpha = 2.8;
  config.shadowing_sigma_db = 3.0;
  config.enable_reflections = true;
  const core::DecaySpace space = env::BuildDecaySpace(office, config, nodes);

  const double zeta = std::max(1.0, core::Metricity(space));
  std::printf("office decay space: %d nodes, zeta = %.3f (alpha %.1f), "
              "symmetric: %s\n",
              space.size(), zeta, config.alpha,
              space.IsSymmetric(1e-9) ? "yes" : "no (sector antennas)");

  const sinr::LinkSystem system(space, links, {2.0, 1e-13});
  const sinr::PowerAssignment power = sinr::UniformPower(system);

  std::printf("\nper-link decay and standalone SNR margin:\n");
  for (int v = 0; v < system.NumLinks(); ++v) {
    std::printf("  link %d: decay %.3g, can overcome noise: %s\n", v,
                system.LinkDecay(v),
                system.CanOvercomeNoise(v, power) ? "yes" : "NO");
  }

  // One uniform-power kernel serves every algorithm below.
  const sinr::KernelCache kernel(system, power);
  const std::vector<int> all = sinr::AllLinks(kernel);
  const auto chosen = capacity::RunAlgorithm1(kernel, zeta).selected;
  const auto greedy = capacity::GreedyFeasible(kernel, all);
  std::printf("\none-shot capacity: Algorithm 1 -> %zu links, greedy -> %zu "
              "links (of %d)\n",
              chosen.size(), greedy.size(), system.NumLinks());

  const auto schedule = scheduling::ScheduleLinks(
      kernel, zeta, scheduling::Extractor::kAlgorithm1, all);
  std::printf("full traffic schedule: %d slots\n", schedule.Length());
  for (int s = 0; s < schedule.Length(); ++s) {
    std::printf("  slot %d:", s);
    for (int v : schedule.slots[static_cast<std::size_t>(s)]) {
      std::printf(" link%d", v);
    }
    std::printf("\n");
  }
  return 0;
}
