#include "obs/stage_stats.h"

#include <algorithm>

namespace decaylib::obs {

namespace {

StageStats::Stage* FindMutable(std::vector<StageStats::Stage>& stages,
                               std::string_view name) {
  for (StageStats::Stage& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

}  // namespace

void StageStats::Record(std::string_view name, double ms) {
  Stage* stage = FindMutable(stages, name);
  if (stage == nullptr) {
    stages.push_back(Stage{std::string(name)});
    stage = &stages.back();
  }
  ++stage->count;
  stage->total_ms += ms;
  stage->min_ms = std::min(stage->min_ms, ms);
  stage->max_ms = std::max(stage->max_ms, ms);
}

void StageStats::Merge(const StageStats& other) {
  for (const Stage& theirs : other.stages) {
    Stage* mine = FindMutable(stages, theirs.name);
    if (mine == nullptr) {
      stages.push_back(theirs);
      continue;
    }
    mine->count += theirs.count;
    mine->total_ms += theirs.total_ms;
    mine->min_ms = std::min(mine->min_ms, theirs.min_ms);
    mine->max_ms = std::max(mine->max_ms, theirs.max_ms);
  }
}

const StageStats::Stage* StageStats::Find(std::string_view name) const {
  for (const Stage& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

double StageStats::TotalMs(std::string_view prefix) const {
  double total = 0.0;
  for (const Stage& stage : stages) {
    if (stage.name.starts_with(prefix)) total += stage.total_ms;
  }
  return total;
}

}  // namespace decaylib::obs
