// E13 -- Populating decay spaces from measurements (Sec. 2.2).
//
// Decay matrices "are relatively easily obtained by measurements ... can
// also be inferred by packet reception rates".  We simulate both pipelines
// over walled/shadowed ground truth and check how faithfully the inferred
// matrix reproduces the space's key statistics (zeta, phi, spread) and the
// downstream capacity decisions.
#include <cstdio>

#include "bench_util.h"
#include "capacity/algorithm1.h"
#include "core/metricity.h"
#include "env/propagation.h"
#include "geom/samplers.h"
#include "measurement/prr.h"
#include "measurement/rssi.h"
#include "sinr/power.h"

using namespace decaylib;

int main() {
  bench::Banner("E13", "Decay inference from RSSI / PRR measurements",
                "measured matrices reproduce zeta and downstream decisions "
                "(Sec. 2.2)");

  // Ground truth: office environment with shadowing.
  geom::Rng rng(5);
  bench::PlanarDeployment dep(14, 24.0, 0.8, 1.2, rng);
  env::Environment office = env::Environment::OfficeGrid(24.0, 24.0, 3, 3);
  env::PropagationConfig config;
  config.alpha = 2.8;
  config.shadowing_sigma_db = 4.0;
  const core::DecaySpace truth =
      env::BuildDecaySpace(office, config, env::PlaceIsotropic(dep.points));
  const double zeta_truth = core::Metricity(truth);
  const sinr::LinkSystem truth_system(truth, dep.links, {1.0, 0.0});
  const sinr::KernelCache truth_kernel(truth_system,
                                      sinr::UniformPower(truth_system));
  const auto chosen_truth =
      capacity::RunAlgorithm1(truth_kernel, std::max(1.0, zeta_truth))
          .selected;

  std::printf("\nGround truth: zeta = %.3f, capacity choice |S| = %zu\n",
              zeta_truth, chosen_truth.size());

  {
    std::printf("\n(a) RSSI pipeline across quantisation\n\n");
    bench::Table table({"quant dB", "noise dB", "zeta inferred",
                        "zeta error %", "same capacity set",
                        "choice feasible on truth"});
    for (const double quant : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      measurement::RssiConfig rssi;
      rssi.quantization_db = quant;
      rssi.noise_sigma_db = quant > 0.0 ? 0.5 : 0.0;
      rssi.readings_per_pair = 16;
      rssi.sensitivity_dbm = -1000.0;
      geom::Rng mrng(7);
      const auto table_rssi = measurement::SimulateRssi(truth, rssi, mrng);
      const core::DecaySpace inferred =
          measurement::InferDecayFromRssi(table_rssi, rssi);
      const double zeta = core::Metricity(inferred);
      const sinr::LinkSystem system(inferred, dep.links, {1.0, 0.0});
      const sinr::KernelCache kernel(system, sinr::UniformPower(system));
      const auto chosen =
          capacity::RunAlgorithm1(kernel, std::max(1.0, zeta)).selected;
      const bool feasible_on_truth = truth_kernel.IsFeasible(chosen);
      table.AddRow({bench::Fmt(quant, 1), bench::Fmt(rssi.noise_sigma_db, 1),
                    bench::Fmt(zeta),
                    bench::Fmt(100.0 * std::abs(zeta - zeta_truth) /
                               zeta_truth, 1),
                    chosen == chosen_truth ? "yes" : "no",
                    feasible_on_truth ? "yes" : "NO"});
    }
    table.Print();
  }

  {
    std::printf("\n(b) PRR pipeline across probe counts (noise tuned so "
                "SINRs sit near threshold)\n\n");
    bench::Table table({"probes", "mean |log decay err|", "zeta inferred"});
    for (const int probes : {50, 200, 1000, 5000}) {
      measurement::PrrConfig prr;
      prr.probes = probes;
      // Put the capture transition in the informative range for this truth.
      prr.noise = 1.0 / (prr.capture.beta * truth.MaxDecay());
      geom::Rng prng(9);
      const auto rates = measurement::SimulatePrr(truth, prr, prng);
      const core::DecaySpace inferred =
          measurement::InferDecayFromPrr(rates, prr);
      double err = 0.0;
      int count = 0;
      for (int u = 0; u < truth.size(); ++u) {
        for (int v = 0; v < truth.size(); ++v) {
          if (u == v) continue;
          err += std::abs(std::log(inferred(u, v) / truth(u, v)));
          ++count;
        }
      }
      table.AddRow({bench::FmtInt(probes), bench::Fmt(err / count),
                    bench::Fmt(core::Metricity(inferred))});
    }
    table.Print();
  }

  std::printf(
      "\nExpected shape: (a) zeta error grows with quantisation but the "
      "capacity choice stays\nfeasible on the true matrix throughout; (b) "
      "PRR inference sharpens with probe count\n(saturated links cap the "
      "achievable accuracy).\n");
  return 0;
}
