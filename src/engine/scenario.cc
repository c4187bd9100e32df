#include "engine/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/check.h"
#include "core/metricity.h"
#include "core/parse.h"
#include "geom/grid.h"
#include "geom/rng.h"
#include "geom/samplers.h"
#include "obs/registry.h"
#include "sinr/power.h"
#include "spaces/samplers.h"

namespace decaylib::engine {

namespace {

// Registry handles of the geometry cache's LRU layer, resolved once.
// Metric name catalogue: docs/observability.md.
obs::Counter& GenerationHitCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("engine.geometry_generation_hits");
  return counter;
}

obs::Counter& GenerationEvictionCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("engine.geometry_evictions");
  return counter;
}

// Seed policy: one independent, reproducible stream per (family, instance).
std::uint64_t InstanceSeed(std::uint64_t base, int index) {
  return geom::Mix64(base +
                     0x9e3779b97f4a7c15ULL *
                         (static_cast<std::uint64_t>(index) + 1));
}

// The spec's decay space over sampled points: coordinate-backed (O(n)
// memory, entries evaluated on demand) when shadow-free, a dense shadowed
// matrix otherwise.  Shadowing draws from `rng` after the points, exactly as
// the spaces:: samplers do.
std::shared_ptr<const core::DecaySpace> SpaceFromPoints(
    const ScenarioSpec& spec, const std::vector<geom::Vec2>& pts,
    geom::Rng& rng) {
  if (spec.sigma_db > 0.0) {
    return std::make_shared<const core::DecaySpace>(spaces::ShadowedGeometric(
        pts, spec.alpha, spec.sigma_db, rng, spec.symmetric_shadowing));
  }
  return std::make_shared<const core::DecaySpace>(
      core::DecaySpace::CoordinateBacked(pts, spec.alpha));
}

// --- topology generators ---------------------------------------------------
//
// Each samples `points` planar nodes at roughly constant density, so
// instance difficulty scales with size rather than crowding.

std::vector<geom::Vec2> UniformTopology(const ScenarioSpec&, int points,
                                        geom::Rng& rng) {
  const double box = 2.0 * std::sqrt(static_cast<double>(points));
  return geom::SampleUniform(points, box, box, rng);
}

std::vector<geom::Vec2> ClusteredTopology(const ScenarioSpec& spec, int points,
                                          geom::Rng& rng) {
  DL_CHECK(spec.hotspots >= 1, "clustered topology needs >= 1 hotspot");
  const double box = 2.0 * std::sqrt(static_cast<double>(points));
  return geom::SampleClusters(points, spec.hotspots, box, box,
                              spec.cluster_sigma, rng);
}

std::vector<geom::Vec2> CorridorTopology(const ScenarioSpec& spec, int points,
                                         geom::Rng& rng) {
  const double length = 2.0 * static_cast<double>(points);
  return spaces::CorridorPoints(points, length, spec.corridor_width, rng);
}

std::vector<geom::Vec2> GridTopology(const ScenarioSpec&, int points,
                                     geom::Rng& rng) {
  // Cell centers on a regular grid (spacing ~2), each jittered inside its
  // cell: a cellular layout with one node per cell.
  const double side = 2.0 * std::ceil(std::sqrt(static_cast<double>(points)));
  std::vector<geom::Vec2> pts = geom::SampleGrid(points, side, side);
  for (geom::Vec2& p : pts) {
    p.x += rng.Uniform(-0.5, 0.5);
    p.y += rng.Uniform(-0.5, 0.5);
  }
  return pts;
}

using TopologyGenerator = std::vector<geom::Vec2> (*)(const ScenarioSpec&, int,
                                                      geom::Rng&);

const std::vector<std::pair<std::string, TopologyGenerator>>& TopologyTable() {
  static const std::vector<std::pair<std::string, TopologyGenerator>> table = {
      {"uniform", &UniformTopology},
      {"clustered", &ClusteredTopology},
      {"corridor", &CorridorTopology},
      {"grid", &GridTopology},
  };
  return table;
}

TopologyGenerator FindTopology(const std::string& name) {
  for (const auto& [key, gen] : TopologyTable()) {
    if (key == name) return gen;
  }
  return nullptr;
}

// Orientation shared by both pairing paths: along the weaker-decay
// direction (ties keep the lower id as sender), so the link's own decay
// f_vv is the pair's best case.
sinr::Link OrientPair(const core::DecaySpace& space, int i, int j) {
  if (space(i, j) <= space(j, i)) return {i, j};
  return {j, i};
}

// --- the field table ---------------------------------------------------------

constexpr const char* kKernelModeNames[] = {"dense", "farfield"};
constexpr double kMaxInt = std::numeric_limits<int>::max();
constexpr unsigned kSwept = kAxis | kSet;  // every axis is a --set field
constexpr FieldRange kPositive = {.lo = 0.0, .open_lo = true};

// The row's field: `Path` is a chain of data-member pointers from the spec.
template <auto... Path>
FieldPtr At(ScenarioSpec& spec) {
  return &(spec .* ... .* Path);
}

// A row's field in a spec that is only read (the accessor serves writes).
FieldPtr Read(const ScenarioField& field, const ScenarioSpec& spec) {
  return field.at(const_cast<ScenarioSpec&>(spec));
}

// The value of an int or double row; nullopt for every other row.
std::optional<double> NumberAt(const FieldPtr& ptr) {
  if (int* const* value = std::get_if<int*>(&ptr)) return **value;
  if (double* const* value = std::get_if<double*>(&ptr)) return **value;
  return std::nullopt;
}

bool InRange(const FieldRange& range, double value) {
  return std::isfinite(value) &&
         (range.open_lo ? value > range.lo : value >= range.lo) &&
         (range.open_hi ? value < range.hi : value <= range.hi);
}

}  // namespace

ScenarioInstance::ScenarioInstance(
    std::shared_ptr<const core::DecaySpace> space,
    std::vector<sinr::Link> links, sinr::SinrConfig config, double zeta)
    : space_(std::move(space)),
      system_(std::make_unique<sinr::LinkSystem>(*space_, std::move(links),
                                                 config)),
      power_(sinr::UniformPower(*system_)),
      zeta_(zeta) {}

std::vector<std::string> RegisteredTopologies() {
  std::vector<std::string> names;
  names.reserve(TopologyTable().size());
  for (const auto& [key, gen] : TopologyTable()) names.push_back(key);
  return names;
}

bool IsRegisteredTopology(const std::string& topology) {
  return FindTopology(topology) != nullptr;
}

const char* KernelModeName(KernelMode mode) {
  const auto k = static_cast<std::size_t>(mode);
  return k < std::size(kKernelModeNames) ? kKernelModeNames[k] : "unknown";
}

std::span<const ScenarioField> ScenarioFields() {
  using S = ScenarioSpec;
  using D = DynamicsSpec;
  static const ScenarioField kFields[] = {
      {"name", At<&S::name>},
      {"topology", At<&S::topology>, kGeometry},
      {"links", At<&S::links>, kGeometry | kSwept | kFlag,
       {.lo = 1, .hi = kMaxInt / 2}, "links must be in [1, 1073741823]"},
      {"instances", At<&S::instances>, kSwept | kFlag,
       {.lo = 1, .hi = kMaxInt}, "instances must be in [1, 2147483647]"},
      {"alpha", At<&S::alpha>, kGeometry | kSwept | kFlag, kPositive,
       "alpha must be a positive finite decay exponent"},
      {"sigma_db", At<&S::sigma_db>, kGeometry | kSwept, {.lo = 0.0},
       "sigma_db must be a non-negative finite shadowing spread"},
      {"symmetric_shadowing", At<&S::symmetric_shadowing>, kGeometry},
      {"power_tau", At<&S::power_tau>, kSwept, {}, "power_tau must be finite"},
      // The SINR model requires beta >= 1 (LinkSystem's precondition).
      {"beta", At<&S::beta>, kSwept | kFlag, {.lo = 1.0},
       "beta must be a finite threshold >= 1"},
      {"noise", At<&S::noise>, kSwept, {.lo = 0.0},
       "noise must be a non-negative finite ambient level"},
      {"zeta", At<&S::zeta>, kSwept, {},
       "zeta must be finite (> 0 explicit, 0 = alpha, < 0 = measured)"},
      {"seed", At<&S::seed>, kGeometry | kFlag},
      {"hotspots", At<&S::hotspots>, kGeometry, {.lo = 1, .hi = kMaxInt},
       "hotspots must be >= 1"},
      {"cluster_sigma", At<&S::cluster_sigma>, kGeometry, kPositive,
       "cluster_sigma must be positive and finite"},
      {"corridor_width", At<&S::corridor_width>, kGeometry, kPositive,
       "corridor_width must be positive and finite"},
      {"kernel_mode", At<&S::kernel_mode>, kSet, {}, nullptr,
       kKernelModeNames},
      {"farfield_epsilon", At<&S::farfield_epsilon>, kSwept, {.lo = 0.0},
       "farfield_epsilon must be non-negative and finite"},
      {"lambda", At<&S::dynamics, &D::lambda>, kDynamics | kSwept | kFlag,
       {.lo = 0.0, .hi = 1.0},
       "lambda is a per-slot Bernoulli probability in [0, 1]"},
      {"scheduler", At<&S::dynamics, &D::scheduler>, kDynamics | kFlag, {},
       nullptr, dynamics::SchedulerNames()},
      {"queue_slots", At<&S::dynamics, &D::queue_slots>, kDynamics,
       {.lo = 1, .hi = kMaxInt}, "queue_slots must be >= 1"},
      {"regret_learning_rate", At<&S::dynamics, &D::regret_learning_rate>,
       kDynamics, {.lo = 0.0, .hi = 1.0, .open_lo = true, .open_hi = true},
       "regret learning rate must be in (0, 1)"},
      {"regret_penalty", At<&S::dynamics, &D::regret_penalty>,
       kDynamics | kSwept, {.lo = 0.0},
       "regret penalty must be a non-negative finite cost"},
      {"regret_rounds", At<&S::dynamics, &D::regret_rounds>, kDynamics,
       {.lo = 1, .hi = kMaxInt}, "regret_rounds must be >= 1"},
  };
  return kFields;
}

const ScenarioField* FindScenarioField(std::string_view name) {
  for (const ScenarioField& field : ScenarioFields()) {
    if (name == field.name) return &field;
  }
  return nullptr;
}

std::string FieldText(const ScenarioField& field, const ScenarioSpec& spec) {
  return std::visit(
      [](const auto* value) -> std::string {
        using T = std::remove_cvref_t<decltype(*value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *value;
        } else if constexpr (std::is_same_v<T, double>) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", *value);
          return buf;
        } else {
          return std::to_string(static_cast<long long>(*value));
        }
      },
      Read(field, spec));
}

core::Status WriteFieldNumber(ScenarioSpec& spec, const ScenarioField& field,
                              double value) {
  const FieldPtr ptr = field.at(spec);
  int* const* as_int = std::get_if<int*>(&ptr);
  if (!NumberAt(ptr) || (as_int != nullptr && value != std::floor(value))) {
    return core::Status::InvalidArgument(
        std::string(field.name) + (as_int != nullptr
                                       ? " needs an integral value"
                                       : " is not a number field"));
  }
  if (!InRange(field.range, value)) {
    return core::Status::InvalidArgument(field.message);
  }
  if (as_int != nullptr) {
    **as_int = static_cast<int>(value);
  } else {
    *std::get<double*>(ptr) = value;
  }
  return core::Status::Ok();
}

core::Status WriteFieldText(ScenarioSpec& spec, const ScenarioField& field,
                            const std::string& text) {
  const FieldPtr ptr = field.at(spec);
  double number = 0.0;
  if (NumberAt(ptr) &&
      core::ParseDouble(text.c_str(), std::numeric_limits<double>::lowest(),
                        std::numeric_limits<double>::max(), &number)) {
    return WriteFieldNumber(spec, field, number);
  }
  long long seed = 0;
  std::uint64_t* const* out = std::get_if<std::uint64_t*>(&ptr);
  if (out != nullptr &&
      core::ParseInt(text.c_str(), 0, std::numeric_limits<long long>::max(),
                     &seed)) {
    **out = static_cast<std::uint64_t>(seed);
    return core::Status::Ok();
  }
  std::string message =
      std::string(field.name) + ": cannot take '" + text + "'";
  for (std::size_t k = 0; k < field.names.size(); ++k) {
    if (text == field.names[k]) {
      std::visit(
          [k](auto* value) {
            using T = std::remove_pointer_t<decltype(value)>;
            if constexpr (std::is_enum_v<T>) *value = static_cast<T>(k);
          },
          ptr);
      return core::Status::Ok();
    }
    message += (k == 0 ? " (one of " : " | ") + std::string(field.names[k]);
  }
  return core::Status::InvalidArgument(
      field.names.empty() ? message : message + ")");
}

core::Status ValidateScenarioSpec(const ScenarioSpec& spec) {
  using core::Status;
  if (!IsRegisteredTopology(spec.topology)) {
    return Status::InvalidArgument("unknown topology '" + spec.topology + "'");
  }
  // Two passes in table order: the spec's own rows and the far-field rule,
  // then the kDynamics rows -- validated unconditionally, since a spec is
  // either valid or it is not, whichever tasks a batch happens to run.
  for (const bool dynamics : {false, true}) {
    for (const ScenarioField& field : ScenarioFields()) {
      const std::optional<double> value = NumberAt(Read(field, spec));
      if (field.Has(kDynamics) == dynamics && value &&
          !InRange(field.range, *value)) {
        return Status::InvalidArgument(field.message);
      }
    }
    if (dynamics || spec.kernel_mode != KernelMode::kFarField) continue;
    // The far-field kernel pools geometric decay contributions per cell;
    // the certificate needs decays that are a pure function of distance (no
    // shadowing) and a uniform base power (the pooled factor c_v * f_vv
    // must not depend on the interferer).
    if (spec.sigma_db != 0.0) {
      return Status::InvalidArgument(
          "kernel_mode=farfield requires sigma_db == 0 (distance-pure decay)");
    }
    if (spec.power_tau != 0.0) {
      return Status::InvalidArgument(
          "kernel_mode=farfield requires uniform power (power_tau == 0)");
    }
  }
  return Status::Ok();
}

std::vector<sinr::Link> PairLinksByDecay(const core::DecaySpace& space) {
  const int n = space.size();
  DL_CHECK(n >= 2 && n % 2 == 0, "pairing needs an even number of nodes");
  std::vector<std::tuple<double, int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) /
                2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      pairs.emplace_back(std::min(space(i, j), space(j, i)), i, j);
    }
  }
  // A full sort, deliberately: the greedy matching consumes nearly the
  // whole order before the last (far-apart) nodes pair up -- ~98% of the
  // n^2/2 candidates at n = 1024 nodes -- so lazy selection (heap pops)
  // only adds overhead.  PairLinksByDecayGrid sidesteps the order entirely
  // for coordinate-backed spaces.
  std::sort(pairs.begin(), pairs.end());
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  std::vector<sinr::Link> links;
  links.reserve(static_cast<std::size_t>(n / 2));
  for (const auto& [decay, i, j] : pairs) {
    if (used[static_cast<std::size_t>(i)] || used[static_cast<std::size_t>(j)])
      continue;
    used[static_cast<std::size_t>(i)] = 1;
    used[static_cast<std::size_t>(j)] = 1;
    links.push_back(OrientPair(space, i, j));
    if (static_cast<int>(links.size()) == n / 2) break;
  }
  return links;
}

std::vector<sinr::Link> PairLinksByDecayGrid(
    const core::DecaySpace& space, std::span<const geom::Vec2> points,
    double alpha) {
  const int n = space.size();
  DL_CHECK(n >= 2 && n % 2 == 0, "pairing needs an even number of nodes");
  DL_CHECK(static_cast<int>(points.size()) == n,
           "grid pairing needs one point per node");
  DL_CHECK(alpha > 0.0, "grid pairing needs a positive decay exponent");
  // The precondition space == Geometric(points, alpha), checked wherever the
  // space carries its coordinates.
  DL_CHECK(!space.IsCoordinateBacked() ||
               (space.alpha() == alpha &&
                std::ranges::equal(points, space.points())),
           "grid pairing needs the space's own points and alpha");

  std::vector<int> alive(static_cast<std::size_t>(n));
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<int> best(static_cast<std::size_t>(n), -1);
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  // Matched pairs with their weights; sorted at the end so link ids come
  // out in exactly the ascending (weight, lo, hi) order the sorted greedy
  // emits them in.
  std::vector<std::tuple<double, int, int>> matched;
  matched.reserve(static_cast<std::size_t>(n / 2));

  while (!alive.empty()) {
    const geom::UniformGrid grid(points, alive);

    // Phase 1: every alive node's best alive partner under the greedy's
    // strict total order on pairs, (weight, lo id, hi id).  Weights are the
    // decay-matrix entries themselves; the expanding ring search stops once
    // the ring's distance bound proves -- via pow's weak monotonicity --
    // that no unvisited candidate can match the incumbent's weight, so ties
    // at equal weight (however the ids fall) are always still in play.
    for (const int i : alive) {
      const geom::Vec2 p = points[static_cast<std::size_t>(i)];
      int best_j = -1;
      double best_w = std::numeric_limits<double>::infinity();
      for (int ring = 0;; ++ring) {
        // The prune bound deliberately mirrors the space's
        // pow(distance, alpha) so the ring cutoff can never under-estimate
        // a candidate's decay.
        if (best_j >= 0 &&
            // decay-lint: allow(exactness-pow) -- mirrors the space's decay
            std::pow(grid.RingDistanceLowerBound(ring), alpha) > best_w) {
          break;
        }
        const bool any_cell = grid.VisitRing(p, ring, [&](int j) {
          if (j == i) return;
          // The precondition's space is symmetric: one read is the
          // symmetrised weight.
          const double w = space(i, j);
          if (best_j < 0 || w < best_w) {
            best_w = w;
            best_j = j;
          } else if (w == best_w) {
            const int lo = i < j ? i : j;
            const int hi = i < j ? j : i;
            const int blo = i < best_j ? i : best_j;
            const int bhi = i < best_j ? best_j : i;
            if (lo < blo || (lo == blo && hi < bhi)) best_j = j;
          }
        });
        if (!any_cell) break;
      }
      best[static_cast<std::size_t>(i)] = best_j;
    }

    // Phase 2: match every mutual-best pair (at least the globally minimal
    // pair is one, so every round makes progress) and drop it from play.
    for (const int i : alive) {
      const int j = best[static_cast<std::size_t>(i)];
      if (j > i && best[static_cast<std::size_t>(j)] == i) {
        matched.emplace_back(space(i, j), i, j);
        used[static_cast<std::size_t>(i)] = 1;
        used[static_cast<std::size_t>(j)] = 1;
      }
    }
    std::erase_if(alive,
                  [&](int i) { return used[static_cast<std::size_t>(i)] != 0; });
  }

  std::sort(matched.begin(), matched.end());
  std::vector<sinr::Link> links;
  links.reserve(matched.size());
  for (const auto& [w, i, j] : matched) links.push_back(OrientPair(space, i, j));
  return links;
}

GeometryKey GeometryKeyOf(const ScenarioSpec& spec) {
  GeometryKey key;
  for (const ScenarioField& field : ScenarioFields()) {
    if (field.Has(kGeometry)) key += FieldText(field, spec) + '\x1f';
  }
  return key;
}

ScenarioGeometry BuildGeometry(const ScenarioSpec& spec, int index,
                               PairingMode pairing) {
  DL_CHECK(spec.links >= 1, "scenario needs at least one link");
  DL_CHECK(index >= 0, "instance index must be non-negative");
  const TopologyGenerator generator = FindTopology(spec.topology);
  DL_CHECK(generator != nullptr, "unknown scenario topology");

  geom::Rng rng(InstanceSeed(spec.seed, index));
  ScenarioGeometry geometry;
  geometry.points = generator(spec, 2 * spec.links, rng);
  geometry.space = SpaceFromPoints(spec, geometry.points, rng);

  // Grid/MNN pairing requires decay to be a monotone function of point
  // distance, which shadowing destroys (the matrix is then arbitrary even
  // though points exist); both routes produce the identical matching.
  geometry.links =
      (pairing == PairingMode::kAuto && spec.sigma_db == 0.0)
          ? PairLinksByDecayGrid(*geometry.space, geometry.points, spec.alpha)
          : PairLinksByDecay(*geometry.space);
  return geometry;
}

double EnsureMeasuredZeta(ScenarioGeometry& geometry) {
  if (!geometry.zeta_measured) {
    geometry.measured_zeta = core::ComputeMetricity(*geometry.space).zeta;
    geometry.zeta_measured = true;
  }
  return geometry.measured_zeta;
}

ScenarioInstance ConfigureInstance(const ScenarioSpec& spec,
                                   const ScenarioGeometry& geometry) {
  // zeta policy: explicit > 0, geometric default (alpha) at 0, measured
  // per instance when negative (falling back to alpha for unconstrained
  // spaces, where any positive exponent works).
  double zeta = spec.zeta;
  if (zeta == 0.0) {
    zeta = spec.alpha;
  } else if (zeta < 0.0) {
    DL_CHECK(geometry.zeta_measured,
             "a zeta < 0 spec needs EnsureMeasuredZeta before configuring");
    zeta = geometry.measured_zeta > 0.0 ? geometry.measured_zeta : spec.alpha;
  }

  ScenarioInstance instance(geometry.space, geometry.links,
                            {spec.beta, spec.noise}, zeta);

  // The constructor's default power is already uniform; only replace it
  // when the spec asks for a power law or a noise-overcoming rescale.
  if (spec.power_tau != 0.0 || spec.noise > 0.0) {
    sinr::PowerAssignment power =
        spec.power_tau == 0.0
            ? instance.power()
            : sinr::PowerLaw(instance.system(), spec.power_tau);
    if (spec.noise > 0.0) {
      power = sinr::ScaledToOvercomeNoise(instance.system(), std::move(power));
    }
    instance.SetPower(std::move(power));
  }
  return instance;
}

ScenarioInstance BuildInstance(const ScenarioSpec& spec, int index,
                               PairingMode pairing) {
  ScenarioGeometry geometry = BuildGeometry(spec, index, pairing);
  if (spec.zeta < 0.0) EnsureMeasuredZeta(geometry);
  return ConfigureInstance(spec, geometry);
}

// One key's slots.  `mu` guards the slot table and the claim bookkeeping;
// each slot's geometry is written once, under its once_flags, outside it.
struct GeometryCache::Generation {
  struct Slot {
    std::once_flag sampled;
    std::once_flag measured;
    ScenarioGeometry geometry;
    int owner = -1;         // the first lease whose Adopt covered the slot
    bool owner_seen = false;  // that lease has acquired the slot
  };

  explicit Generation(GeometryKey k) : key(std::move(k)) {}

  const GeometryKey key;
  std::mutex mu;
  std::vector<std::unique_ptr<Slot>> slots;  // heap slots: growth moves none
  int leases = 0;
};

GeometryCache::GeometryCache() = default;
GeometryCache::~GeometryCache() = default;

void GeometryCache::SetGenerations(int generations) {
  DL_CHECK(generations >= 1, "geometry cache needs at least one generation");
  capacity_ = generations;
  EvictOverCapacity();
}

void GeometryCache::EvictOverCapacity() {
  while (static_cast<int>(lru_.size()) > capacity_) {
    lru_.pop_back();
    ++evictions_;
    GenerationEvictionCounter().Add();
  }
}

GeometryCache::Lease GeometryCache::Adopt(const ScenarioSpec& spec) {
  DL_CHECK(spec.instances >= 1, "geometry cache needs at least one instance");
  GeometryKey key = GeometryKeyOf(spec);
  auto it = std::find_if(lru_.begin(), lru_.end(),
                         [&](const auto& g) { return g->key == key; });
  if (it != lru_.end()) {
    // A generation's slots always match its key, so nothing invalidates:
    // splice the node to the front (no slot moves, warm references survive).
    lru_.splice(lru_.begin(), lru_, it);
    ++generation_hits_;
    GenerationHitCounter().Add();
  } else {
    lru_.push_front(std::make_shared<Generation>(std::move(key)));
    EvictOverCapacity();
  }
  Lease lease;
  lease.cache_ = this;
  lease.generation_ = lru_.front();
  Generation& generation = *lease.generation_;
  std::lock_guard<std::mutex> lock(generation.mu);
  lease.claim_ = generation.leases++;
  while (static_cast<int>(generation.slots.size()) < spec.instances) {
    generation.slots.push_back(std::make_unique<Generation::Slot>());
  }
  for (int i = 0; i < spec.instances; ++i) {
    Generation::Slot& slot = *generation.slots[static_cast<std::size_t>(i)];
    if (slot.owner < 0) slot.owner = lease.claim_;
  }
  return lease;
}

const ScenarioGeometry& GeometryCache::Lease::Acquire(const ScenarioSpec& spec,
                                                      int index,
                                                      PairingMode pairing,
                                                      bool* built) const {
  DL_CHECK(generation_ != nullptr && GeometryKeyOf(spec) == generation_->key,
           "Acquire needs a lease adopted with a key-equal spec");
  Generation::Slot* slot = nullptr;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(generation_->mu);
    DL_CHECK(index >= 0 && index < static_cast<int>(generation_->slots.size()),
             "instance index outside the adopted slot range");
    slot = generation_->slots[static_cast<std::size_t>(index)].get();
    first = slot->owner == claim_ && !slot->owner_seen;
    if (first) slot->owner_seen = true;
  }
  if (built != nullptr) *built = first;
  bool sampled = false;
  std::call_once(slot->sampled, [&] {
    slot->geometry = BuildGeometry(spec, index, pairing);
    sampled = true;
  });
  (sampled ? cache_->builds_ : cache_->reuses_)
      .fetch_add(1, std::memory_order_relaxed);
  // The measurement is a geometry property; memoise it in the slot so a
  // grid that sweeps zeta across negative and explicit values pays the
  // O(n^3) scan once per geometry, not once per cell.
  if (spec.zeta < 0.0) {
    std::call_once(slot->measured,
                   [&] { EnsureMeasuredZeta(slot->geometry); });
  }
  return slot->geometry;
}

void GeometryCache::Prepare(const ScenarioSpec& spec) {
  prepared_ = Adopt(spec);
}

const ScenarioGeometry& GeometryCache::Acquire(const ScenarioSpec& spec,
                                               int index, PairingMode pairing,
                                               bool* built) {
  DL_CHECK(static_cast<bool>(prepared_),
           "Acquire needs a Prepare with a key-equal spec first");
  return prepared_.Acquire(spec, index, pairing, built);
}

std::vector<ScenarioSpec> BuiltinScenarios() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec uniform;
  uniform.name = "uniform_dense";
  uniform.topology = "uniform";
  uniform.alpha = 3.0;
  uniform.seed = 101;
  specs.push_back(uniform);

  ScenarioSpec clustered;
  clustered.name = "clustered_hotspots";
  clustered.topology = "clustered";
  clustered.alpha = 3.5;
  clustered.hotspots = 6;
  clustered.cluster_sigma = 1.5;
  clustered.seed = 202;
  specs.push_back(clustered);

  ScenarioSpec corridor;
  corridor.name = "highway_corridor";
  corridor.topology = "corridor";
  corridor.alpha = 3.0;
  corridor.corridor_width = 2.0;
  corridor.seed = 303;
  specs.push_back(corridor);

  ScenarioSpec grid;
  grid.name = "grid_hetero_power";
  grid.topology = "grid";
  grid.alpha = 3.0;
  grid.power_tau = 0.5;  // mean power: heterogeneous but monotone
  grid.noise = 0.01;
  grid.seed = 404;
  specs.push_back(grid);

  ScenarioSpec shadowed_sym;
  shadowed_sym.name = "shadowed_symmetric";
  shadowed_sym.topology = "uniform";
  shadowed_sym.alpha = 3.0;
  shadowed_sym.sigma_db = 6.0;
  shadowed_sym.symmetric_shadowing = true;
  // Shadowing pushes metricity above alpha; 2 lg(shadow range) of headroom
  // keeps the separation test meaningful without measuring per instance.
  shadowed_sym.zeta = 4.0;
  shadowed_sym.seed = 505;
  specs.push_back(shadowed_sym);

  ScenarioSpec shadowed_asym;
  shadowed_asym.name = "shadowed_asymmetric";
  shadowed_asym.topology = "uniform";
  shadowed_asym.alpha = 3.0;
  shadowed_asym.sigma_db = 6.0;
  shadowed_asym.symmetric_shadowing = false;
  shadowed_asym.zeta = -1.0;  // measured per instance
  shadowed_asym.seed = 606;
  specs.push_back(shadowed_asym);

  return specs;
}

std::optional<ScenarioSpec> FindBuiltinScenario(const std::string& name) {
  for (ScenarioSpec& spec : BuiltinScenarios()) {
    if (spec.name == name) return std::move(spec);
  }
  return std::nullopt;
}

}  // namespace decaylib::engine
