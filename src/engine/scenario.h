// Declarative deployment scenarios (the workload layer of the library).
//
// A ScenarioSpec describes a *family* of deployments as pure data: which
// topology generator lays out the nodes, how many links and instances, the
// decay model (path-loss exponent + shadowing regime), the power assignment,
// the SINR configuration, and the seed/zeta policies.  BuildInstance turns
// (spec, instance index) into a concrete ScenarioInstance -- deterministic:
// the same pair always yields bit-identical decay matrices, links and
// powers, regardless of which thread or process builds it.
//
// Instance construction is split along the axis the sweep layer exploits:
//   * BuildGeometry samples everything that consumes randomness or scales
//     super-linearly -- the planar points and the decay space over them,
//     the greedy link pairing, and the lazily measured metricity.  Geometry
//     depends only on the spec fields collected in GeometryKey plus the
//     instance index.
//   * ConfigureInstance applies the cheap per-cell knobs (beta, noise,
//     power_tau, the zeta policy) to a geometry, costing O(links).
// BuildInstance is exactly BuildGeometry + ConfigureInstance; GeometryCache
// keeps one grid cell's worth of geometries warm so sweep cells that differ
// only in non-geometric axes skip the sampling entirely (batch_runner.h
// wires it into the worker pool, sweep_runner.h shares one across a grid).
//
// Topology generators are looked up in a registry by name; the built-in
// kinds cover uniform boxes, Matérn-style clustered hotspots, line/highway
// corridors and jittered grid cells (geom/samplers.h and spaces/samplers.h
// provide the underlying point samplers).  A generator samples 2 * links
// planar points; the decay space over them then takes one of the two
// core::DecaySpace representations:
//   * shadow-free (sigma_db == 0): coordinate-backed -- the points and
//     alpha, O(links) memory, entries evaluated on demand, bit-identical
//     to the dense DecaySpace::Geometric matrix;
//   * shadowed (sigma_db > 0): a dense matrix, since the shadowing draws
//     make every entry independent of the points.
// Links are then formed by a topology-agnostic greedy pairing
// that repeatedly matches the two unused nodes with the smallest
// symmetrised decay, so every topology yields short, plausible
// sender/receiver pairs without bespoke per-topology link logic.  For
// coordinate-backed, shadowing-free topologies the pairing runs as
// mutual-nearest-neighbour rounds over a geom::UniformGrid -- near-linear
// instead of O(n^2 log n), provably the identical matching -- with the
// full-sort path kept as the fallback for matrix-only spaces and as the
// test oracle (PairingMode selects explicitly).
//
// BuiltinScenarios() is the registry of named presets the batch runner,
// scenario_runner CLI and benches share: one spec per deployment family
// (uniform, clustered, corridor, heterogeneous-power grid, symmetric and
// asymmetric shadowing).  docs/scenarios.md documents the schema and how to
// add a new scenario.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/decay_space.h"
#include "core/status.h"
#include "dynamics/queue_system.h"
#include "geom/point.h"
#include "sinr/link_system.h"

namespace decaylib::engine {

// Traffic/dynamics knobs consumed by TaskKind::kQueue and kRegret (ignored
// by every other task).  Non-geometric: two specs differing only here share
// a GeometryKey, so a sweep whose trailing axis is lambda or regret_penalty
// reuses one sampled geometry across the whole row.  Out-of-range values
// are rejected by ValidateScenarioSpec before any worker starts (lambda is
// a per-slot Bernoulli probability; feeding Rng::Chance anything outside
// [0, 1] would silently distort the arrival process).
struct DynamicsSpec {
  double lambda = 0.1;  // per-link Bernoulli arrival rate, in [0, 1]
  dynamics::Scheduler scheduler = dynamics::Scheduler::kLongestQueueFirst;
  int queue_slots = 400;  // simulated slots; warmup = queue_slots / 10

  double regret_learning_rate = 0.1;  // multiplicative-weights eta, in (0, 1)
  double regret_penalty = 1.0;        // failed-transmission cost, >= 0
  int regret_rounds = 400;            // game rounds; tail = rounds / 4

  friend bool operator==(const DynamicsSpec&, const DynamicsSpec&) = default;
};

// Which affectance kernel the batch runner builds per instance.
//   * kDense: the O(n^2) sinr::KernelCache (the default; exact, and the
//     bit-exactness reference every other mode is gated against).
//   * kFarField: the matrix-free sinr::FarFieldKernel for the tasks that
//     support it (algorithm1, greedy, schedule) -- O(n) memory, pooled
//     distant-cell affectance bounds whenever farfield_epsilon > 0; at
//     epsilon == 0 every query is exact and results are bit-identical to
//     dense.  Requires a coordinate-backed,
//     shadowing-free spec with uniform base power (sigma_db == 0,
//     power_tau == 0; ValidateScenarioSpec rejects the rest).  Tasks
//     without a far-field path still build the dense kernel lazily.
enum class KernelMode { kDense, kFarField };

// Stable name of a kernel mode: "dense" / "farfield" (the kernel_mode row's
// names).
const char* KernelModeName(KernelMode mode);

// Pure-data description of a deployment family.  Every field has a sane
// default so specs can be written as designated initialisers.
struct ScenarioSpec {
  std::string name;                  // display name of the family
  std::string topology = "uniform";  // registered topology kind

  int links = 64;      // links per instance (2 * links nodes)
  int instances = 8;   // instances in a batch

  // Decay model.
  double alpha = 3.0;     // path-loss exponent
  double sigma_db = 0.0;  // lognormal shadowing std dev in dB (0 = none)
  bool symmetric_shadowing = true;

  // Power and SINR regime.
  double power_tau = 0.0;  // P_v proportional to f_vv^tau (0 = uniform)
  double beta = 1.0;       // SINR threshold
  double noise = 0.0;      // ambient noise (power is rescaled to overcome it)

  // zeta policy: > 0 uses the value as-is, == 0 uses alpha (the geometric
  // bound), < 0 measures ComputeMetricity per instance (exact but O(n^3)).
  double zeta = 0.0;

  // Seed policy: instance i seeds its generator stream with
  // Mix64(seed + golden * (i + 1)) (InstanceSeed in scenario.cc), so
  // instances are independent and reproducible.
  std::uint64_t seed = 1;

  // Kernel path (non-geometric: two specs differing only here share a
  // GeometryKey).  farfield_epsilon switches pooled far-field bounds on:
  // any value > 0 pools, and no decision or aggregate reads the value
  // itself; 0 forces every query exact (dense-bit-identical results).
  // Ignored under kDense.
  KernelMode kernel_mode = KernelMode::kDense;
  double farfield_epsilon = 1e-3;

  // Topology shape knobs (ignored by topologies that do not use them).
  int hotspots = 5;             // clustered: number of hotspot centers
  double cluster_sigma = 1.5;   // clustered: point spread around a center
  double corridor_width = 2.0;  // corridor: strip width (length scales w/ n)

  // Traffic/dynamics knobs (TaskKind::kQueue / kRegret only).
  DynamicsSpec dynamics;
};

// --- the field table ---------------------------------------------------------
//
// One row per ScenarioSpec field, the DynamicsSpec knobs last, in hash
// order.  ValidateScenarioSpec checks the rows' ranges, GeometryKeyOf reads
// the kGeometry rows, sweep::SweepSpecHash hashes every row, and sweep axes
// and CLI flags write the rows whose roles allow it.  Adding a field is one
// row (docs/scenarios.md).

// A row's field in a spec, typed: a string, int, double, bool, the seed, or
// an enum (written by name, hashed by value).
using FieldPtr = std::variant<std::string*, int*, double*, bool*,
                              std::uint64_t*, KernelMode*,
                              dynamics::Scheduler*>;

// A row's roles, as a bit set.
enum FieldRole : unsigned {
  kGeometry = 1u << 0,  // in GeometryKey: a change re-samples geometry
  kAxis = 1u << 1,      // a sweep axis may write it
  kSet = 1u << 2,       // scenario_runner --set FIELD=VALUE may write it
  kFlag = 1u << 3,      // a CLI tool's own --FIELD flag may write it
  kDynamics = 1u << 4,  // spec.dynamics.NAME (checked after the far-field rule)
};

// The valid values of an int or double row: finite and within [lo, hi],
// an open end excluding its bound.
struct FieldRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open_lo = false;
  bool open_hi = false;
};

struct ScenarioField {
  const char* name;               // the axis, --set and --FIELD name
  FieldPtr (*at)(ScenarioSpec&);  // the field in a spec
  unsigned roles = 0;             // FieldRole bits
  FieldRange range = {};          // int and double rows, with...
  const char* message = nullptr;  // ...the message when out of range
  std::span<const char* const> names = {};  // enum rows: names by value

  bool Has(FieldRole role) const { return (roles & role) != 0; }
};

std::span<const ScenarioField> ScenarioFields();
const ScenarioField* FindScenarioField(std::string_view name);  // or nullptr

// The encoding of the checkpoint hash and GeometryKey: a string as is, a
// double as "%.17g", anything else as a decimal integer (bools 0/1, enums
// by value, the seed as a signed 64-bit integer).
std::string FieldText(const ScenarioField& field, const ScenarioSpec& spec);

// Writes a number into an int (integral values only) or double row, or text
// into a row (a finite number, the seed's non-negative integer, an enum's
// name).  The range is checked before the write, so before an int's cast;
// any failure is kInvalidArgument (the row's message when out of range)
// and leaves the spec untouched.
core::Status WriteFieldNumber(ScenarioSpec& spec, const ScenarioField& field,
                              double value);
core::Status WriteFieldText(ScenarioSpec& spec, const ScenarioField& field,
                            const std::string& text);

// How link pairing runs inside BuildGeometry / BuildInstance.
enum class PairingMode {
  // Grid-accelerated mutual-nearest-neighbour rounds when the topology is
  // coordinate-backed and shadowing-free (decay monotone in distance);
  // sort-greedy otherwise.  Produces the identical matching either way.
  kAuto,
  // Always the O(n^2 log n) full-sort reference path (the test oracle and
  // the bench A/B baseline).
  kSortGreedy,
};

// The sampled, cell-invariant part of an instance: the decay space, the
// planar points behind it, the greedy link pairing, and -- measured lazily,
// only when a spec's zeta policy asks -- the metricity of the space.
// Everything downstream of the spec's GeometryKey and the instance index;
// nothing here depends on beta, noise, power_tau or the (explicit) zeta.
// A shadow-free geometry is O(links) in memory (its space is
// coordinate-backed); a shadowed one holds the dense (2 links)^2 matrix.
struct ScenarioGeometry {
  std::shared_ptr<const core::DecaySpace> space;
  std::vector<geom::Vec2> points;  // 2 * links entries, one per node
  std::vector<sinr::Link> links;
  double measured_zeta = 0.0;  // valid iff zeta_measured
  bool zeta_measured = false;
};

// The FieldText of each kGeometry row, each closed by a 0x1f byte.  Specs
// with equal keys produce bit-identical ScenarioGeometry per instance index.
using GeometryKey = std::string;

GeometryKey GeometryKeyOf(const ScenarioSpec& spec);

// One realised deployment: a decay space, a link system over it, a power
// assignment and the resolved zeta.  The space is held behind a shared
// pointer so instances configured from a cached geometry alias its matrix
// instead of copying it; the LinkSystem holds a reference into it, so
// instances stay freely movable either way.
class ScenarioInstance {
 public:
  ScenarioInstance(std::shared_ptr<const core::DecaySpace> space,
                   std::vector<sinr::Link> links, sinr::SinrConfig config,
                   double zeta);

  const core::DecaySpace& space() const noexcept { return *space_; }
  const sinr::LinkSystem& system() const noexcept { return *system_; }
  const sinr::PowerAssignment& power() const noexcept { return power_; }
  double zeta() const noexcept { return zeta_; }
  int NumLinks() const noexcept { return system_->NumLinks(); }

  void SetPower(sinr::PowerAssignment power) { power_ = std::move(power); }

 private:
  std::shared_ptr<const core::DecaySpace> space_;
  std::unique_ptr<sinr::LinkSystem> system_;
  sinr::PowerAssignment power_;
  double zeta_;
};

// Registered topology kinds, in registration order.
std::vector<std::string> RegisteredTopologies();
bool IsRegisteredTopology(const std::string& topology);

// Runtime-input validation of a spec: registered topology, then every
// row's range in table order, with the far-field rule (kernel_mode=farfield
// needs sigma_db == 0 and power_tau == 0) before the kDynamics rows.
// Returns the first violation as Status::InvalidArgument naming the field;
// specs are
// user/CLI/sweep input, so rejection is an expected error path, not a
// DL_CHECK abort (core/status.h).  BatchRunner::RunOne throws the result as
// core::StatusError; CLI tools and the sweep runner's per-cell isolation
// surface it as a message instead.
core::Status ValidateScenarioSpec(const ScenarioSpec& spec);

// Samples the geometry of instance `index`: decay space (+ points), link
// pairing.  Deterministic in (GeometryKeyOf(spec), index, pairing is
// result-invisible).  Does NOT measure metricity; see EnsureMeasuredZeta.
ScenarioGeometry BuildGeometry(const ScenarioSpec& spec, int index,
                               PairingMode pairing = PairingMode::kAuto);

// Measures (once) and caches the metricity of the geometry's space.
// Returns the measured value; subsequent calls are free.
double EnsureMeasuredZeta(ScenarioGeometry& geometry);

// Applies the cheap per-cell knobs to a geometry: builds the LinkSystem
// under (beta, noise), resolves the zeta policy, assigns power.  O(links)
// beyond the LinkSystem construction.  A spec with zeta < 0 requires
// geometry.zeta_measured (DL_CHECK) -- callers run EnsureMeasuredZeta
// first, as BuildInstance and GeometryCache::Acquire do.
ScenarioInstance ConfigureInstance(const ScenarioSpec& spec,
                                   const ScenarioGeometry& geometry);

// Builds instance `index` of the family: BuildGeometry + (if needed)
// EnsureMeasuredZeta + ConfigureInstance.  Deterministic in (spec, index);
// the pairing mode never changes the result, only the route taken.
// Aborts (DL_CHECK) on an unknown topology or non-positive sizes.
ScenarioInstance BuildInstance(const ScenarioSpec& spec, int index,
                               PairingMode pairing = PairingMode::kAuto);

// Topology-agnostic sender/receiver pairing over an even-sized decay space:
// repeatedly links the two unused nodes with the smallest symmetrised decay
// (ties by node ids), orienting each link along its weaker-decay direction.
// Deterministic; O(n^2 log n).  The reference path and test oracle.
std::vector<sinr::Link> PairLinksByDecay(const core::DecaySpace& space);

// The same matching, computed as iterated mutual-nearest-neighbour rounds
// over a geom::UniformGrid instead of a full sort -- near-linear for the
// typical constant-density deployment.  Exactness: a pair that is mutually
// best under the strict total order (weight, lo id, hi id) is matched by
// the sorted greedy before anything else touches its endpoints, so matching
// all mutual-best pairs and recursing on the remainder reproduces the
// greedy matching exactly; candidate weights are read from the decay
// space itself and the grid only *prunes* via pow's weak monotonicity
// (decay >= pow(ring distance bound, alpha)).  Requires space to hold the
// entries of DecaySpace::Geometric(points, alpha) -- i.e. symmetric,
// shadowing-free decays; BuildGeometry dispatches here exactly when that
// holds.  A coordinate-backed space is checked against points and alpha
// (DL_CHECK); a dense one is trusted.  Reads O(n) entries for the typical
// constant-density deployment, so an on-demand space costs no more.
std::vector<sinr::Link> PairLinksByDecayGrid(const core::DecaySpace& space,
                                             std::span<const geom::Vec2> points,
                                             double alpha);

// Warm geometries, kept per GeometryKey *generation*: within a generation,
// slot i holds the geometry of instance i.  Adopt(spec) moves the spec's
// generation to the front of an LRU list, creating it when absent and
// dropping the least recently used generation beyond the capacity
// (default 1: the single-generation memory bound), and returns a Lease on
// it; Lease::Acquire(spec, i) returns slot i, building it (and measuring
// metricity, when the spec's zeta policy needs it) on first touch.  More
// generations pay memory for reuse across *interleaved* keys -- the access
// pattern of a sweep whose geometric axis is not the slowest, where a
// single generation thrashes (docs/sweeps.md).
//
// Thread contract (the pooled runners' one work queue runs several cells
// of a grid at once):
//  * Adopt, SetGenerations and the LRU accounting run on one thread -- the
//    runner's coordinator, in spec/grid order -- so generation hits and
//    evictions are deterministic in the sequence of Adopt calls;
//  * Lease::Acquire is safe from any number of workers at once.  Each slot
//    is built exactly once: a second cell asking for the same (key, index)
//    while the first builds waits for it instead of rebuilding, and a
//    measured zeta is computed once per slot the same way;
//  * a lease keeps its generation alive, so a generation dropped by the LRU
//    while a cell still holds it is released when that last lease goes.
// `built` reports a slot as built only to the first Acquire of the lease
// whose Adopt first covered it (leases are numbered in Adopt order), and
// as warm to every other -- whichever worker physically samples it -- so
// the per-instance cache-hit fact does not depend on the schedule.
//
// Prepare(spec) / Acquire(spec, i) are the single-threaded form of the
// same path: Prepare adopts and holds the lease, Acquire reads through it.
class GeometryCache {
  struct Generation;

 public:
  GeometryCache();
  ~GeometryCache();
  GeometryCache(const GeometryCache&) = delete;
  GeometryCache& operator=(const GeometryCache&) = delete;

  // One cell's hold on its generation (empty when default-constructed).
  // The cache must outlive every Acquire through the lease.
  class Lease {
   public:
    Lease() = default;
    explicit operator bool() const noexcept { return generation_ != nullptr; }

    // The geometry of instance `index` under the adopted key; builds into
    // the slot when cold.  The reference stays valid as long as some lease
    // on the generation lives or the LRU keeps it.  `built` (optional)
    // reports the per-instance cache-hit fact described above, which the
    // batch runner's stage breakdown and the obs registry record.
    const ScenarioGeometry& Acquire(const ScenarioSpec& spec, int index,
                                    PairingMode pairing = PairingMode::kAuto,
                                    bool* built = nullptr) const;

   private:
    friend class GeometryCache;
    GeometryCache* cache_ = nullptr;
    std::shared_ptr<Generation> generation_;
    int claim_ = -1;  // this lease's number within its generation
  };

  // LRU capacity in generations (>= 1).  Shrinking drops the excess least
  // recently used generations immediately.
  void SetGenerations(int generations);
  int generations() const noexcept { return capacity_; }

  // Adopts the spec's key: splices its generation to the front when cached
  // (a generation hit), creates a fresh front generation otherwise
  // (evicting beyond capacity), ensures at least spec.instances slots
  // exist in it, and returns a lease that claims the slots no earlier
  // lease covered.
  Lease Adopt(const ScenarioSpec& spec);

  // Single-threaded form: Prepare adopts and keeps the lease (releasing the
  // previous one); Acquire goes through it and needs a key-equal spec.
  void Prepare(const ScenarioSpec& spec);
  const ScenarioGeometry& Acquire(const ScenarioSpec& spec, int index,
                                  PairingMode pairing = PairingMode::kAuto,
                                  bool* built = nullptr);

  // Accounting.  builds() counts slots sampled, reuses() the Acquire calls
  // that sampled nothing; both are deterministic in the set of (generation,
  // index) pairs acquired.  Generation hits / evictions count Adopts served
  // by an already-cached generation / generations dropped by LRU pressure,
  // mirrored into the obs registry as engine.geometry_generation_hits /
  // engine.geometry_evictions.
  long long builds() const noexcept { return builds_.load(); }
  long long reuses() const noexcept { return reuses_.load(); }
  long long generation_hits() const noexcept { return generation_hits_; }
  long long evictions() const noexcept { return evictions_; }

 private:
  void EvictOverCapacity();

  std::list<std::shared_ptr<Generation>> lru_;  // front = most recently used
  Lease prepared_;  // the single-threaded form's current lease
  int capacity_ = 1;
  std::atomic<long long> builds_{0};
  std::atomic<long long> reuses_{0};
  long long generation_hits_ = 0;  // mutated only by Adopt / SetGenerations
  long long evictions_ = 0;
};

// The named scenario presets shared by the batch runner, the CLI and the
// benches: one per deployment family, each with a distinct base seed.
std::vector<ScenarioSpec> BuiltinScenarios();

// Looks a builtin up by name.
std::optional<ScenarioSpec> FindBuiltinScenario(const std::string& name);

}  // namespace decaylib::engine
