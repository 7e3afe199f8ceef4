// Shared pieces of the sfpbench workloads: the report every run fills,
// pre-generated traffic, the serve loop, the measured window with its
// interleaved side tasks, system boot, the interpreted twin check, the
// control-log twin replay and the provisioning probe.
//
// Every timer lives in sfpbench's own code around calls into the
// public API of src/ modules; nothing in src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "controlplane/approx_solver.h"
#include "controlplane/ilp_solver.h"
#include "core/sfp_system.h"
#include "net/packet.h"

namespace sfpbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Packets per SfpSystem::ProcessBatchInto call in every serve loop.
inline constexpr int kBatch = 4096;
/// Consecutive timed batches per window of the windowed serve metrics.
inline constexpr std::size_t kServeWindow = 1024;
/// Consecutive removes per window of remove_p99_us: one serve_steady
/// set-up's removes.
inline constexpr std::size_t kRemoveWindow = 64;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Hardware threads (std::thread::hardware_concurrency, >= 1); shard
  /// counts derive from it.
  int nproc = 1;
};

/// Operations attempted and failed in one class (serve, admit, remove,
/// reprovision, provision).
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: end-to-end metrics, per-layer metrics (traced
/// runs only), operation accounting and failed output checks.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, OpCount> ops;
  /// Admissions refused for capacity, by reason (printed, not a failure).
  std::map<std::string, std::int64_t> refusals;
  std::vector<std::string> errors;
  /// Free-form lines printed before the result (distributions behind a
  /// metric).
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Fail(const std::string& why) { errors.push_back(why); }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
};

// --- traffic --------------------------------------------------------------

/// Traffic generated before any timer starts: fixed-size batches that a
/// serve loop replays cyclically.
struct Traffic {
  std::vector<std::vector<sfp::net::Packet>> batches;
  /// Wire bytes of each batch (for the telemetry conservation check).
  std::vector<std::uint64_t> batch_bytes;
  /// Ingress gap in virtual ns; > 0 stamps packets so the finite
  /// recirculation port sees time advance. 0 leaves them unstamped.
  double gap_ns = 0.0;
};

/// `num_batches` batches of kBatch packets. Each packet belongs to a
/// uniformly drawn tenant of `tenants` and one of its
/// `flows_per_tenant` flows. `frame_bytes` > 0 fixes the frame size; 0
/// draws sizes from the IMC'10 datacenter mix.
Traffic MakeTraffic(const std::vector<sfp::dataplane::TenantId>& tenants, int flows_per_tenant,
                    int frame_bytes, int num_batches, double gap_ns, sfp::Rng& rng);

// --- serving --------------------------------------------------------------

struct ServeStats {
  /// Host time of each SfpSystem::ProcessBatchInto call, µs.
  std::vector<double> batch_us;
  /// ProcessResult::latency_ns of every 16th packet served, up to 65536
  /// samples.
  std::vector<double> sim_latency_ns;
  /// Every packet handed to the system on any path, and its bytes.
  std::uint64_t sent = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t parse_errors = 0;
  // Traced runs only: DataPlane::ProcessBatchInto at the run's shard
  // count and with 1 shard, the separate TelemetryCollector::RecordBatch
  // and an empty WorkerPool::ParallelFor.
  std::vector<double> plane_us;
  std::vector<double> plane_1shard_us;
  std::vector<double> record_us;
  std::vector<double> parallel_for_us;
};

/// Closed-loop serve caller. Untraced, every batch goes through
/// SfpSystem::ProcessBatchInto. Traced, batches rotate over three
/// paths: the SfpSystem call, DataPlane::ProcessBatchInto followed by a
/// separate RecordBatch, and the same with one shard (inline path).
/// Every packet is still served exactly once and recorded once, so
/// telemetry conservation holds in both modes.
class Server {
 public:
  /// `first_slot` is the virtual-time slot (in batches) the first
  /// served batch is stamped at; later batches follow it.
  Server(sfp::core::SfpSystem& system, Traffic& traffic, sfp::common::WorkerPool& pool,
         int shards, bool traced, ServeStats& stats, std::uint64_t first_slot = 0);

  /// Serves the next batch of the cycle, re-stamping its ingress times
  /// so virtual time keeps advancing across replays.
  void ServeOne();

 private:
  sfp::core::SfpSystem& system_;
  Traffic& traffic_;
  sfp::common::WorkerPool& pool_;
  int shards_;
  bool traced_;
  ServeStats& stats_;
  std::uint64_t next_ = 0;
  std::uint64_t first_slot_;
  std::vector<sfp::switchsim::ProcessResult> results_;
  std::vector<std::uint32_t> indices_;
  // WorkerPool lets a worker that read job N's task pointer claim an
  // index of job N+1 and run it through that stale pointer. When every
  // job comes from the same call at the same stack depth, the pointer
  // lands on the next job's task and the claim is harmless. Traced runs
  // therefore give each job shape a pool of its own: DataPlane batches
  // and the empty ParallelFor (over one no-op that outlives every job)
  // never share the SfpSystem batches' pool.
  std::unique_ptr<sfp::common::WorkerPool> plane_pool_;
  std::unique_ptr<sfp::common::WorkerPool> probe_pool_;
  std::function<void(int)> noop_ = [](int) {};
};

// --- the measured window ----------------------------------------------------

/// The measured phase of a run. Its clock is workload time: host time
/// since Start() minus the time spent in side tasks. Side tasks are the
/// probes that give a workload the metrics outside its focus (set-ups,
/// provisioning, exact solves). Each kind is spread evenly over the
/// window, so every metric's samples span the whole run: a burst of
/// host noise moves a few samples of each metric rather than all the
/// samples of one. An open-loop schedule runs on workload time, so a
/// side task delays no arrival.
class Window {
 public:
  explicit Window(double seconds) : seconds_(seconds) {}

  /// Schedules `task(0)` .. `task(count - 1)` at evenly spaced
  /// workload times, the i-th at (i + 0.5) / count of the window.
  void Spread(int count, const std::function<void(int)>& task);

  void Start();
  /// Workload seconds since Start().
  double Now() const;
  bool Open() const { return Now() < seconds_; }
  /// Runs the side tasks whose time has come, pausing the clock.
  void RunDue();
  /// Runs any side task still pending once the window has closed.
  void Finish();

 private:
  struct Slot {
    double at_s = 0.0;
    std::function<void()> run;
  };
  double seconds_;
  std::vector<Slot> slots_;
  std::size_t next_ = 0;
  Clock::time_point start_;
  Clock::duration paused_{};
};

// --- systems --------------------------------------------------------------

/// A switch plus the tenants admitted at boot.
struct Population {
  sfp::switchsim::SwitchConfig config;
  /// Explicit physical layout (one vector of NF types per stage).
  std::vector<std::vector<sfp::nf::NfType>> layout;
  std::vector<sfp::dataplane::Sfc> tenants;
  bool incremental_admission = false;
};

/// One control operation as the benchmark issued it, for the twin
/// replay of traced runs.
struct ControlOp {
  bool admit = true;
  const sfp::dataplane::Sfc* sfc = nullptr;  // admits only
  sfp::dataplane::TenantId tenant = 0;
  /// False for operations that only rebuild the state the measured ones
  /// start from (churn_mixed's boot): the twin replays them untimed.
  bool timed = true;
};

/// Per-admit and per-remove samples of SfpSystem calls.
struct ControlStats {
  /// Admit latency from the arrival's due time (equal to the call time
  /// for closed-loop admits), µs.
  std::vector<double> admit_us;
  /// Host time inside AdmitTenant, µs.
  std::vector<double> admit_call_us;
  std::vector<double> remove_us;
  /// Open loop only: how late the generator issued each arrival, µs.
  std::vector<double> lateness_us;
  /// Open loop only: wall time the schedule spanned, s.
  double window_s = 0.0;
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;
  /// Capacity refusals by AdmitCodeName (decisions, not failures).
  std::map<std::string, std::int64_t> refusals;
};

/// Builds a system from `population`: explicit layout, optional
/// incremental admission, compiled plans when `compiled` (enabled
/// before the admits, so each admit warm-compiles as on the user path),
/// then admits every tenant in order, timing each call into `control`
/// and logging it into `log` when non-null (as `timed_log` ops).
std::unique_ptr<sfp::core::SfpSystem> Boot(const Population& population, bool compiled,
                                           Report& report, ControlStats& control,
                                           std::vector<ControlOp>* log, bool timed_log = true);

/// Gives every physical rate limiter the token bucket (id 0) that
/// generated police rules refer to; part of configuring a booted switch.
void AddRateLimiterBuckets(sfp::core::SfpSystem& system);

/// Admits one tenant, timing it from `due` (the call start when
/// closed-loop), and books the outcome. Returns true when admitted.
bool TimedAdmit(sfp::core::SfpSystem& system, const sfp::dataplane::Sfc& sfc,
                Clock::time_point due, Report& report, ControlStats& control);

/// Removes a live tenant, timing the call (compaction included).
void TimedRemove(sfp::core::SfpSystem& system, sfp::dataplane::TenantId tenant,
                 Report& report, ControlStats& control);

/// Serves `batch` single-threaded through `live` (compiled plans) and
/// `twin` (interpreted) and fails the run if any verdict differs. Pass
/// counts and latency are excluded: only they may differ between two
/// layouts of one chain. Both systems record the batch in telemetry.
void CheckAgainstInterpreted(sfp::core::SfpSystem& live, sfp::core::SfpSystem& twin,
                             std::span<const sfp::net::Packet> batch, Report& report);

/// Telemetry conservation: packets and bytes recorded for `tenants`
/// equal what the serve loop sent.
void CheckTelemetry(const sfp::core::SfpSystem& system,
                    const std::vector<sfp::dataplane::TenantId>& tenants,
                    const ServeStats& stats, Report& report);

/// Sum over `tenants` of the rule entries each one's chain installs
/// (rules plus the per-NF catch-all).
std::int64_t ExpectedEntries(const std::vector<const sfp::dataplane::Sfc*>& tenants);

// --- traced-only layer measurements -----------------------------------------

struct ReplayStats {
  std::vector<double> alloc_us;
  std::vector<double> dealloc_us;
  std::vector<double> compaction_us;
  std::vector<double> warm_us;
  std::vector<double> lp_us;
  /// One sample per replay: the layout's InstallPhysicalNf calls, ms.
  std::vector<double> install_physical_ms;
};

/// Replays a control log on a twin DataPlane (same config and layout,
/// compiled plans on) and a twin IncrementalAdmissionLp, timing
/// AllocateSfc, PlanCache::Invalidate + Warm, TryAdmit, DeallocateSfc,
/// PlanCompaction and the InstallPhysicalNf calls of the layout. After
/// a departure it applies the compaction moves SfpSystem::RemoveTenant
/// would (best candidate first, at most 8, stop on a non-improving
/// move), so the twin's state follows the live system's. Ops with
/// `timed` false run but add no sample.
void ReplayOnTwin(const Population& population, const std::vector<ControlOp>& log,
                  ReplayStats& replay);

/// Reads the pipeline and admission counters the per-layer report takes
/// from SfpSystem::ExportMetrics.
std::map<std::string, std::uint64_t> ExportedCounters(const sfp::core::SfpSystem& system);

// --- provisioning -----------------------------------------------------------

/// Boot-time placement inputs: expected tenant sets of L = 50 concrete
/// chains (§VI-A dataset), provisioned on the default 8-stage switch.
/// The sets come from a fixed seed, not the run's.
struct ProvisionPool {
  sfp::switchsim::SwitchConfig config;
  sfp::controlplane::ApproxOptions options;
  std::vector<std::vector<sfp::dataplane::Sfc>> sets;
};

ProvisionPool MakeProvisionPool();

/// The provisioning metrics every workload reports, taken as side tasks
/// of its window: each expected set is provisioned once and the first
/// kCheckedSets are checked, and the fig08 L = 25 instance is solved
/// exactly kIlpSolves times. Finish() books provision_s, placement_obj
/// and ip_solve_s.
class ProvisionProbe {
 public:
  static constexpr int kProvisions = 24;
  static constexpr int kCheckedSets = 4;
  static constexpr int kIlpSolves = 12;

  ProvisionProbe(const ProvisionPool& pool, bool traced);
  /// One untimed provision and exact solve, which warm heap and caches.
  void WarmUp(Report& report);
  /// Provisions expected set `set` on a fresh system, timed; checks the
  /// first kCheckedSets.
  void Provision(int set, Report& report);
  /// One timed deterministic SolveIlp of the fig08 instance.
  void SolveIlp(Report& report);
  void Finish(Report& report);

 private:
  const ProvisionPool& pool_;
  bool traced_;
  sfp::controlplane::PlacementInstance ilp_instance_;
  sfp::controlplane::IlpOptions ilp_options_;
  std::vector<double> provision_s_;
  std::vector<double> objective_pct_;
  std::vector<double> ilp_s_;
  bool have_ilp_ = false;
  sfp::controlplane::SolverReport last_ilp_;
};

// --- reporting helpers --------------------------------------------------------

/// Books the serve metrics (serve_mpps, batch_p50_us, delivered_pct)
/// and, traced, the serve-layer metrics. serve_mpps and the traced
/// batch tails are medians over kServeWindow-batch windows of each
/// window's throughput and p99.
/// `lost` counts packets dropped by the recirculation overload or guard.
void ReportServe(const ServeStats& stats, std::uint64_t lost, bool traced, Report& report);

/// Books admit_p50_us, remove_p99_us, admit_ok_pct and, traced,
/// core.admit_p99_us and the admit-path layer metrics from the twin
/// replay. Each tail is the median over windows of consecutive samples
/// of each window's tail: kRemoveWindow removes, and `admit_window`
/// admits (one closed-loop set-up), or the whole run when it is 0 (one
/// open-loop schedule). The admit residual is admit_p50_us − (alloc +
/// LP + warm + lateness), each a p50.
void ReportControl(const ControlStats& control, const ReplayStats* replay,
                   std::size_t admit_window, Report& report);

/// Books setup_s (median of the run's set-ups).
void ReportSetup(const std::vector<double>& setup_s, Report& report);

/// Books the per-layer counters read from the served system.
void ReportCounters(const sfp::core::SfpSystem& system, Report& report);

// --- workloads ----------------------------------------------------------------

void RunServeSteady(const RunOptions& options, Report& report);
void RunChurnMixed(const RunOptions& options, Report& report);

}  // namespace sfpbench
