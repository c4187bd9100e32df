#include "sweep/sweep.h"

#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "core/check.h"

namespace decaylib::sweep {

using core::Status;

std::string FormatAxisValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::vector<std::string> SweepableFields() {
  std::vector<std::string> names;
  for (const engine::ScenarioField& field : engine::ScenarioFields()) {
    if (field.Has(engine::kAxis)) names.emplace_back(field.name);
  }
  return names;
}

bool IsSweepableField(const std::string& field) {
  const engine::ScenarioField* row = engine::FindScenarioField(field);
  return row != nullptr && row->Has(engine::kAxis);
}

core::Status ApplyAxisValue(engine::ScenarioSpec& spec,
                            const std::string& field, double value) {
  const engine::ScenarioField* row = engine::FindScenarioField(field);
  if (row == nullptr || !row->Has(engine::kAxis)) {
    std::string msg = "unknown sweep field '" + field + "' (sweepable:";
    for (const std::string& name : SweepableFields()) msg += " " + name;
    return Status::InvalidArgument(msg + ")");
  }
  return engine::WriteFieldNumber(spec, *row, value);
}

core::Status ValidateSweepSpec(const SweepSpec& spec) {
  if (Status st = engine::ValidateScenarioSpec(spec.base); !st.ok()) {
    return Status::InvalidArgument("base spec: " + st.message());
  }
  long long size = 1;
  for (const SweepAxis& axis : spec.axes) {
    if (axis.values.empty()) {
      return Status::InvalidArgument("axis '" + axis.field +
                                     "' needs at least one value");
    }
    for (const double value : axis.values) {
      // Each value must both land in the field and leave a valid spec;
      // applying to a copy of the base catches e.g. beta=0.5 or alpha=-1
      // before a worker ever sees the cell.
      engine::ScenarioSpec probe = spec.base;
      Status st = ApplyAxisValue(probe, axis.field, value);
      if (st.ok()) st = engine::ValidateScenarioSpec(probe);
      if (!st.ok()) {
        return Status::InvalidArgument("axis '" + axis.field +
                                       "' value " + FormatAxisValue(value) +
                                       ": " + st.message());
      }
    }
    size *= static_cast<long long>(axis.values.size());
    if (size > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument(
          "sweep grid exceeds the flat cell-index range");
    }
  }
  return Status::Ok();
}

long long GridSize(const SweepSpec& spec) {
  long long size = 1;
  for (const SweepAxis& axis : spec.axes) {
    DL_CHECK(!axis.values.empty(), "sweep axis needs at least one value");
    size *= static_cast<long long>(axis.values.size());
    // SweepCell::index is an int; keep the flat index representable.
    DL_CHECK(size <= std::numeric_limits<int>::max(),
             "sweep grid exceeds the flat cell-index range");
  }
  return size;
}

std::vector<SweepCell> ExpandGrid(const SweepSpec& spec) {
  for (const SweepAxis& axis : spec.axes) {
    DL_CHECK(IsSweepableField(axis.field), "unknown sweep axis field");
    DL_CHECK(!axis.values.empty(), "sweep axis needs at least one value");
  }
  const long long size = GridSize(spec);
  const std::size_t rank = spec.axes.size();

  std::vector<SweepCell> cells;
  cells.reserve(static_cast<std::size_t>(size));
  std::vector<int> coords(rank, 0);
  for (long long index = 0; index < size; ++index) {
    SweepCell cell;
    cell.index = static_cast<int>(index);
    cell.coords = coords;
    cell.spec = spec.base;
    std::string suffix;
    for (std::size_t a = 0; a < rank; ++a) {
      const SweepAxis& axis = spec.axes[a];
      const double value =
          axis.values[static_cast<std::size_t>(coords[a])];
      const core::Status applied = ApplyAxisValue(cell.spec, axis.field, value);
      // Callers gate external input through ValidateSweepSpec; by the time
      // a grid expands, a bad binding is a programmer error.
      DL_CHECK(applied.ok(), "ExpandGrid: invalid axis binding");
      suffix +=
          (a == 0 ? "/" : ",") + axis.field + "=" + FormatAxisValue(value);
    }
    cell.spec.name = spec.base.name + suffix;
    cells.push_back(std::move(cell));

    // Row-major odometer: the last axis varies fastest.
    for (std::size_t a = rank; a-- > 0;) {
      if (++coords[a] < static_cast<int>(spec.axes[a].values.size())) break;
      coords[a] = 0;
    }
  }
  return cells;
}

std::vector<SweepSpec> BuiltinSweeps() {
  std::vector<SweepSpec> sweeps;

  // The paper's headline curve: capacity and schedule length as the decay
  // exponent hardens, at two deployment sizes.
  {
    SweepSpec sweep;
    sweep.name = "capacity_vs_alpha";
    sweep.base.name = "capacity_vs_alpha";
    sweep.base.topology = "uniform";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.seed = 1101;
    sweep.axes = {{"links", {24, 48}}, {"alpha", {2.5, 3.0, 3.5, 4.0}}};
    sweeps.push_back(std::move(sweep));
  }

  // The Theorem 3/6 question made a chart: how much capacity does arbitrary
  // power control buy over uniform power, as the oblivious power policy and
  // the decay exponent vary.
  {
    SweepSpec sweep;
    sweep.name = "power_control_gap";
    sweep.base.name = "power_control_gap";
    sweep.base.topology = "uniform";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.seed = 2202;
    // Geometry axis (alpha) outermost, power policy fastest: the whole
    // power_tau row of a cell reuses one sampled geometry (GeometryCache).
    sweep.axes = {{"alpha", {2.5, 3.5}}, {"power_tau", {0.0, 0.5, 1.0}}};
    sweep.tasks = {engine::TaskKind::kAlgorithm1,
                   engine::TaskKind::kGreedyBaseline,
                   engine::TaskKind::kPowerControl};
    sweeps.push_back(std::move(sweep));
  }

  // Robustness frontier: feasibility under growing ambient noise and
  // shadowing spread (clustered layout, where hotspots concentrate
  // interference).
  {
    SweepSpec sweep;
    sweep.name = "noise_frontier";
    sweep.base.name = "noise_frontier";
    sweep.base.topology = "clustered";
    sweep.base.links = 32;
    sweep.base.instances = 4;
    sweep.base.zeta = 4.0;  // headroom for the shadowed cells
    sweep.base.seed = 3303;
    // Shadowing spread re-samples geometry, noise does not; keeping noise
    // fastest lets each sigma_db row share its sampled instances.
    sweep.axes = {{"sigma_db", {0.0, 6.0}}, {"noise", {0.0, 0.01, 0.05}}};
    sweeps.push_back(std::move(sweep));
  }

  // The stability region made a chart: queue throughput and the backlog-
  // growth instability indicator as the per-link arrival rate climbs, at
  // two decay exponents, with the regret game's tail successes alongside
  // (the transfer line's [2, 3, 44] + Asgeirsson-Mitra, over cached
  // kernels).  Capacity context comes from the greedy baseline.
  {
    SweepSpec sweep;
    sweep.name = "stability_region";
    sweep.base.name = "stability_region";
    sweep.base.topology = "uniform";
    sweep.base.links = 24;
    sweep.base.instances = 4;
    sweep.base.seed = 4404;
    sweep.base.dynamics.queue_slots = 600;
    sweep.base.dynamics.regret_rounds = 600;
    // Geometry axis (alpha) outermost, lambda fastest: the whole arrival-
    // rate row of a cell reuses one sampled geometry (GeometryCache).
    sweep.axes = {{"alpha", {2.5, 3.5}},
                  {"lambda", {0.02, 0.05, 0.1, 0.2, 0.4}}};
    sweep.tasks = {engine::TaskKind::kGreedyBaseline, engine::TaskKind::kQueue,
                   engine::TaskKind::kRegret};
    sweeps.push_back(std::move(sweep));
  }

  return sweeps;
}

std::optional<SweepSpec> FindBuiltinSweep(const std::string& name) {
  for (SweepSpec& sweep : BuiltinSweeps()) {
    if (sweep.name == name) return std::move(sweep);
  }
  return std::nullopt;
}

}  // namespace decaylib::sweep
