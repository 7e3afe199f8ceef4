// Shared serve, window, control, check and provisioning pieces of the
// sfpbench workloads (see bench.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/metrics.h"
#include "controlplane/admission_lp.h"
#include "controlplane/ilp_solver.h"
#include "controlplane/model_builder.h"
#include "controlplane/verifier.h"
#include "nf/rate_limiter.h"
#include "stats.h"
#include "switchsim/compiler/plan_cache.h"
#include "workload/sfc_gen.h"
#include "workload/traffic.h"

namespace sfpbench {

using namespace sfp;

// --- traffic --------------------------------------------------------------

Traffic MakeTraffic(const std::vector<dataplane::TenantId>& tenants, int flows_per_tenant,
                    int frame_bytes, int num_batches, double gap_ns, Rng& rng) {
  std::vector<workload::TrafficSource> sources;
  sources.reserve(tenants.size());
  for (const auto tenant : tenants) {
    workload::TrafficSpec spec;
    spec.tenant = tenant;
    spec.num_flows = flows_per_tenant;
    spec.frame_bytes = frame_bytes;
    sources.emplace_back(spec, rng.Next());
  }
  Traffic traffic;
  traffic.gap_ns = gap_ns;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<net::Packet> batch(kBatch);
    std::uint64_t bytes = 0;
    for (int i = 0; i < kBatch; ++i) {
      const auto k = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(sources.size()) - 1));
      batch[static_cast<std::size_t>(i)] = sources[k].Next();
      bytes += batch[static_cast<std::size_t>(i)].WireBytes();
    }
    traffic.batches.push_back(std::move(batch));
    traffic.batch_bytes.push_back(bytes);
  }
  return traffic;
}

// --- serving --------------------------------------------------------------

Server::Server(core::SfpSystem& system, Traffic& traffic, common::WorkerPool& pool, int shards,
               bool traced, ServeStats& stats, std::uint64_t first_slot)
    : system_(system),
      traffic_(traffic),
      pool_(pool),
      shards_(shards),
      traced_(traced),
      stats_(stats),
      first_slot_(first_slot),
      results_(kBatch),
      indices_(kBatch) {
  std::iota(indices_.begin(), indices_.end(), 0u);
  if (traced_) {
    plane_pool_ = std::make_unique<common::WorkerPool>(shards_);
    probe_pool_ = std::make_unique<common::WorkerPool>(shards_);
  }
}

void Server::ServeOne() {
  const std::size_t b = next_ % traffic_.batches.size();
  auto& batch = traffic_.batches[b];
  if (traffic_.gap_ns > 0.0) {
    // Replays must not run virtual time backwards: the recirculation
    // port would see every packet as arriving behind its backlog.
    const double base = static_cast<double>(first_slot_ + next_) * kBatch * traffic_.gap_ns;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].ingress_time_ns = base + static_cast<double>(i) * traffic_.gap_ns;
    }
  }
  switchsim::BatchOptions options;
  options.pool = &pool_;
  options.num_threads = shards_;
  const std::span<const net::Packet> packets(batch);
  const int path = traced_ ? static_cast<int>(next_ % 3) : 0;
  if (path == 0) {
    const auto t0 = Clock::now();
    system_.ProcessBatchInto(packets, results_, options);
    stats_.batch_us.push_back(Micros(Clock::now() - t0));
  } else {
    options.pool = plane_pool_.get();
    if (path == 2) options.num_threads = 1;
    const auto t0 = Clock::now();
    system_.data_plane().ProcessBatchInto(packets, results_, options);
    const auto t1 = Clock::now();
    system_.Telemetry().RecordBatch(indices_, packets, results_);
    const auto t2 = Clock::now();
    (path == 1 ? stats_.plane_us : stats_.plane_1shard_us).push_back(Micros(t1 - t0));
    stats_.record_us.push_back(Micros(t2 - t1));
  }
  if (traced_) {
    const auto t0 = Clock::now();
    probe_pool_->ParallelFor(shards_, noop_);
    stats_.parallel_for_us.push_back(Micros(Clock::now() - t0));
  }
  // Bounded, so that peak RSS measures the system rather than this
  // sample growing with run length.
  constexpr std::size_t kLatencySamples = std::size_t{1} << 16;
  for (std::size_t i = 0; i < packets.size() && stats_.sim_latency_ns.size() < kLatencySamples;
       i += 16) {
    stats_.sim_latency_ns.push_back(results_[i].latency_ns);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    stats_.parse_errors += results_[i].parse_error ? 1 : 0;
  }
  stats_.sent += packets.size();
  stats_.sent_bytes += traffic_.batch_bytes[b];
  ++next_;
}

// --- the measured window ----------------------------------------------------

void Window::Spread(int count, const std::function<void(int)>& task) {
  for (int i = 0; i < count; ++i) {
    slots_.push_back({(i + 0.5) * seconds_ / count, [task, i] { task(i); }});
  }
}

void Window::Start() {
  std::stable_sort(slots_.begin(), slots_.end(),
                   [](const Slot& a, const Slot& b) { return a.at_s < b.at_s; });
  start_ = Clock::now();
}

double Window::Now() const { return Seconds(Clock::now() - start_ - paused_); }

void Window::RunDue() {
  while (next_ < slots_.size() && slots_[next_].at_s <= Now()) {
    const auto t0 = Clock::now();
    slots_[next_++].run();
    paused_ += Clock::now() - t0;
  }
}

void Window::Finish() {
  while (next_ < slots_.size()) slots_[next_++].run();
}

// --- systems --------------------------------------------------------------

void AddRateLimiterBuckets(core::SfpSystem& system) {
  auto& plane = system.data_plane();
  for (int stage = 0; stage < plane.pipeline().num_stages(); ++stage) {
    if (auto* limiter = static_cast<nf::RateLimiter*>(
            plane.PhysicalNf(stage, nf::NfType::kRateLimiter))) {
      limiter->AddBucket(/*rate_mbps=*/100.0, /*burst_kb=*/10.0);
    }
  }
}

bool TimedAdmit(core::SfpSystem& system, const dataplane::Sfc& sfc, Clock::time_point due,
                Report& report, ControlStats& control) {
  const auto t0 = Clock::now();
  const auto result = system.AdmitTenant(sfc);
  const auto t1 = Clock::now();
  control.admit_us.push_back(Micros(t1 - due));
  control.admit_call_us.push_back(Micros(t1 - t0));
  ++control.arrivals;
  auto& ops = report.ops["admit"];
  ++ops.attempted;
  // Capacity refusals are decisions; only a persistent install fault
  // is a failed operation.
  if (result.code == core::AdmitCode::kInstallFault) ++ops.failed;
  if (result.admitted) {
    ++control.admitted;
  } else {
    ++control.refusals[core::AdmitCodeName(result.code)];
  }
  return result.admitted;
}

void TimedRemove(core::SfpSystem& system, dataplane::TenantId tenant, Report& report,
                 ControlStats& control) {
  const auto t0 = Clock::now();
  const bool removed = system.RemoveTenant(tenant);
  control.remove_us.push_back(Micros(Clock::now() - t0));
  auto& ops = report.ops["remove"];
  ++ops.attempted;
  if (!removed) ++ops.failed;
}

std::unique_ptr<core::SfpSystem> Boot(const Population& population, bool compiled,
                                      Report& report, ControlStats& control,
                                      std::vector<ControlOp>* log, bool timed_log) {
  auto system = std::make_unique<core::SfpSystem>(population.config);
  system->ProvisionPhysical(population.layout);
  AddRateLimiterBuckets(*system);
  if (population.incremental_admission) system->EnableIncrementalAdmission();
  if (compiled) system->EnableCompiledPlans();
  for (const auto& sfc : population.tenants) {
    TimedAdmit(*system, sfc, Clock::now(), report, control);
    if (log != nullptr) log->push_back({true, &sfc, sfc.tenant, timed_log});
  }
  return system;
}

void CheckAgainstInterpreted(core::SfpSystem& live, core::SfpSystem& twin,
                             std::span<const net::Packet> batch, Report& report) {
  std::vector<switchsim::ProcessResult> compiled(batch.size());
  std::vector<switchsim::ProcessResult> interpreted(batch.size());
  switchsim::BatchOptions options;
  options.num_threads = 1;
  live.ProcessBatchInto(batch, compiled, options);
  twin.ProcessBatchInto(batch, interpreted, options);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& a = compiled[i];
    const auto& b = interpreted[i];
    const bool same = a.packet.Serialize() == b.packet.Serialize() &&
                      a.meta.dropped == b.meta.dropped &&
                      a.meta.drop_reason == b.meta.drop_reason &&
                      a.meta.flow_class == b.meta.flow_class &&
                      a.meta.egress_port == b.meta.egress_port &&
                      a.meta.scratch == b.meta.scratch && a.parse_error == b.parse_error;
    if (!same) ++differ;
  }
  report.Check(differ == 0, std::to_string(differ) + " of " + std::to_string(batch.size()) +
                                " sampled verdicts differ from the interpreted twin");
}

void CheckTelemetry(const core::SfpSystem& system, const std::vector<dataplane::TenantId>& tenants,
                    const ServeStats& stats, Report& report) {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  for (const auto tenant : tenants) {
    const auto counters = system.Telemetry().Tenant(tenant);
    packets += counters.packets;
    bytes += counters.bytes;
  }
  report.Check(packets == stats.sent, "telemetry recorded " + std::to_string(packets) +
                                          " packets, sent " + std::to_string(stats.sent));
  report.Check(bytes == stats.sent_bytes, "telemetry recorded " + std::to_string(bytes) +
                                              " bytes, sent " + std::to_string(stats.sent_bytes));
}

std::int64_t ExpectedEntries(const std::vector<const dataplane::Sfc*>& tenants) {
  std::int64_t entries = 0;
  for (const auto* sfc : tenants) {
    for (const auto& nf : sfc->chain) entries += static_cast<std::int64_t>(nf.rules.size()) + 1;
  }
  return entries;
}

// --- traced-only layer measurements -----------------------------------------

void ReplayOnTwin(const Population& population, const std::vector<ControlOp>& log,
                  ReplayStats& replay) {
  dataplane::DataPlane twin(population.config);
  const auto t0 = Clock::now();
  for (std::size_t stage = 0; stage < population.layout.size(); ++stage) {
    for (const auto type : population.layout[stage]) {
      twin.InstallPhysicalNf(static_cast<int>(stage), type);
    }
  }
  replay.install_physical_ms.push_back(Micros(Clock::now() - t0) / 1e3);
  twin.EnableCompiledPlans();
  auto* cache = twin.pipeline().plan_cache();
  controlplane::AdmissionLpOptions lp_options;
  lp_options.backplane_gbps = population.config.backplane_gbps;
  controlplane::IncrementalAdmissionLp lp(lp_options);
  const auto offer = [&lp](const dataplane::Sfc& sfc, int passes) {
    controlplane::TenantFootprint footprint;
    footprint.bandwidth_gbps = sfc.bandwidth_gbps;
    footprint.passes = passes;
    return lp.TryAdmit(sfc.tenant, footprint).admitted;
  };

  for (const auto& op : log) {
    const auto sample = [&op](std::vector<double>& into, Clock::time_point since) {
      if (op.timed) into.push_back(Micros(Clock::now() - since));
    };
    if (op.admit) {
      auto t = Clock::now();
      const auto allocation = twin.AllocateSfc(*op.sfc);
      sample(replay.alloc_us, t);
      if (!allocation.ok) continue;
      t = Clock::now();
      cache->Invalidate(op.tenant);
      cache->Warm(op.tenant);
      sample(replay.warm_us, t);
      t = Clock::now();
      const bool admitted = offer(*op.sfc, allocation.passes);
      sample(replay.lp_us, t);
      if (!admitted) twin.DeallocateSfc(op.tenant);
      continue;
    }
    if (!twin.IsAllocated(op.tenant)) continue;
    auto t = Clock::now();
    twin.DeallocateSfc(op.tenant);
    sample(replay.dealloc_us, t);
    lp.Remove(op.tenant);
    if (!population.config.cross_tenant_packing) continue;
    // SfpSystem::CompactAfterDeparture's moves, as DataPlane calls.
    for (int move = 0; move < 8; ++move) {
      t = Clock::now();
      const auto candidates = twin.PlanCompaction();
      sample(replay.compaction_us, t);
      if (candidates.empty()) break;
      const auto& best = candidates.front();
      const auto* retained = twin.RetainedSfc(best.tenant);
      if (retained == nullptr) break;
      const dataplane::Sfc sfc = *retained;  // deallocation drops the retained copy
      twin.DeallocateSfc(sfc.tenant);
      lp.Remove(sfc.tenant);
      const auto moved = twin.AllocateSfc(sfc);
      if (!moved.ok || !offer(sfc, moved.passes)) break;
      cache->Invalidate(sfc.tenant);
      cache->Warm(sfc.tenant);
      if (moved.passes >= best.current_passes) break;
    }
  }
}

std::map<std::string, std::uint64_t> ExportedCounters(const core::SfpSystem& system) {
  common::metrics::Registry registry;
  system.ExportMetrics(registry);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& snapshot : registry.Counters()) counters[snapshot.name] = snapshot.value;
  return counters;
}

// --- provisioning -----------------------------------------------------------

namespace {

constexpr int kExpectedTenants = 50;
/// The expected sets are fixed, as the fig08 instance is: provisioning
/// time ranges over ±30% of its median between the sets of one draw,
/// and a fixed pool keeps provision_s comparable across seeds.
constexpr std::uint64_t kProvisionPoolSeed = 8001;

/// The instance SfpSystem::ProvisionPhysicalWithReport builds from an
/// expected set.
controlplane::PlacementInstance InstanceOf(const switchsim::SwitchConfig& config,
                                           const std::vector<dataplane::Sfc>& expected) {
  controlplane::PlacementInstance instance;
  instance.sw.stages = config.num_stages;
  instance.sw.blocks_per_stage = config.blocks_per_stage;
  instance.sw.entries_per_block = config.entries_per_block;
  instance.sw.capacity_gbps = config.backplane_gbps;
  instance.num_types = nf::kNumNfTypes;
  for (const auto& sfc : expected) instance.sfcs.push_back(core::SfpSystem::ToSpec(sfc));
  return instance;
}

/// fig08's calibration instance: the L = 25 prefix of its seed-8000
/// pool. Fixed on purpose: exact solve time swings by orders of
/// magnitude between random instances, so one known instance keeps
/// ip_solve_s comparable across seeds.
controlplane::PlacementInstance Fig08Instance() {
  Rng rng(8000);
  workload::DatasetParams params;
  params.num_sfcs = 50;
  params.num_types = 10;
  controlplane::SwitchResources sw;
  auto instance = workload::GenerateInstance(params, sw, rng);
  instance.sfcs.resize(25);
  return instance;
}

/// Output check of boot-time placement: re-solves the same instance with
/// SolveApprox (deterministic for fixed options), requires the
/// controlplane verifier to accept it, the installed layout to be its
/// physical layout and its eq. 1 objective to equal the report's.
/// Returns that objective as a percentage of the LP relaxation bound
/// (0 on failure): the raw objective follows the heavy-tailed bandwidth
/// draws of the set, the ratio to the bound does not. Traced runs also
/// time the model build and the direct SolveApprox.
double CheckPlacement(const ProvisionPool& pool, std::size_t set,
                      const core::SfpSystem& provisioned, bool traced, Report& report) {
  const auto instance = InstanceOf(pool.config, pool.sets[set]);
  if (traced) {
    const auto t0 = Clock::now();
    const auto model = controlplane::BuildPlacementModel(instance, pool.options.model);
    report.per_layer["controlplane.model_build_ms"].value += Micros(Clock::now() - t0) / 1e3;
  }
  const auto t0 = Clock::now();
  const auto approx = controlplane::SolveApprox(instance, pool.options);
  if (traced) {
    report.per_layer["controlplane.approx_s"].value += Seconds(Clock::now() - t0);
    report.per_layer["controlplane.approx_lp_solves"].value += approx.lp_solves;
  }
  const std::string where = "expected set " + std::to_string(set) + ": ";
  if (!approx.ok) {
    report.Fail(where + "SolveApprox found no verified placement");
    return 0.0;
  }
  controlplane::VerifyOptions verify;
  verify.max_passes = pool.options.model.max_passes;
  const auto verdict = controlplane::Verify(instance, approx.solution, verify);
  report.Check(verdict.ok, where + "verifier rejected the placement: " + verdict.violation);

  const auto layout = provisioned.data_plane().PhysicalLayout();
  bool same_layout = true;
  for (int type = 0; type < instance.num_types; ++type) {
    for (int stage = 0; stage < instance.sw.stages; ++stage) {
      const bool chosen =
          approx.solution.physical[static_cast<std::size_t>(type)][static_cast<std::size_t>(stage)];
      const auto& here = layout[static_cast<std::size_t>(stage)];
      const bool installed =
          std::find(here.begin(), here.end(), static_cast<nf::NfType>(type)) != here.end();
      same_layout &= chosen == installed;
    }
  }
  report.Check(same_layout, where + "installed layout differs from the solver's placement");
  const double objective = approx.solution.ObjectiveWeighted(instance);
  report.Check(objective == approx.objective,
               where + "eq. 1 objective of the layout differs from the report's");
  report.Check(approx.lp_bound > 0.0, where + "LP relaxation bound is not positive");
  return approx.lp_bound > 0.0 ? 100.0 * objective / approx.lp_bound : 0.0;
}

}  // namespace

ProvisionPool MakeProvisionPool() {
  Rng rng(kProvisionPoolSeed);
  ProvisionPool pool;
  pool.options.model.max_passes = 3;
  for (int s = 0; s < ProvisionProbe::kProvisions; ++s) {
    std::vector<dataplane::Sfc> set;
    for (int t = 1; t <= kExpectedTenants; ++t) {
      const int length = static_cast<int>(rng.UniformInt(3, 7));
      const double gbps = std::min(rng.Pareto(1.6, 3.0), 100.0);
      set.push_back(workload::GenerateConcreteSfc(static_cast<dataplane::TenantId>(t), length,
                                                  gbps, rng));
    }
    pool.sets.push_back(std::move(set));
  }
  return pool;
}

ProvisionProbe::ProvisionProbe(const ProvisionPool& pool, bool traced)
    : pool_(pool), traced_(traced), ilp_instance_(Fig08Instance()) {
  ilp_options_.model.max_passes = 3;
  ilp_options_.relative_gap = 1e-4;  // fig08's calibration setting; deterministic, uncapped
}

void ProvisionProbe::WarmUp(Report& report) {
  core::SfpSystem system(pool_.config);
  system.ProvisionPhysicalWithReport(pool_.sets[0], pool_.options);
  const auto solved = controlplane::SolveIlp(ilp_instance_, ilp_options_);
  report.Check(solved.status == lp::SolveStatus::kOptimal,
               std::string("SolveIlp ended ") + lp::ToString(solved.status));
}

void ProvisionProbe::Provision(int set, Report& report) {
  const auto index = static_cast<std::size_t>(set) % pool_.sets.size();
  core::SfpSystem system(pool_.config);
  const auto t0 = Clock::now();
  const auto result = system.ProvisionPhysicalWithReport(pool_.sets[index], pool_.options);
  provision_s_.push_back(Seconds(Clock::now() - t0));
  auto& ops = report.ops["provision"];
  ++ops.attempted;
  if (!result.ok || result.path != core::ProvisionPath::kApprox) ++ops.failed;
  if (set < kCheckedSets) {
    objective_pct_.push_back(CheckPlacement(pool_, index, system, traced_, report));
  }
}

void ProvisionProbe::SolveIlp(Report& report) {
  const auto t0 = Clock::now();
  auto solved = controlplane::SolveIlp(ilp_instance_, ilp_options_);
  ilp_s_.push_back(Seconds(Clock::now() - t0));
  report.Check(solved.status == lp::SolveStatus::kOptimal,
               std::string("SolveIlp ended ") + lp::ToString(solved.status));
  if (have_ilp_) {
    report.Check(solved.objective == last_ilp_.objective && solved.nodes == last_ilp_.nodes,
                 "deterministic SolveIlp gave different answers on one instance");
  }
  last_ilp_ = std::move(solved);
  have_ilp_ = true;
}

void ProvisionProbe::Finish(Report& report) {
  report.Check(static_cast<int>(objective_pct_.size()) == kCheckedSets && have_ilp_,
               "provisioning probe did not run all its side tasks");
  report.E2e("provision_s", Median(provision_s_), "s");
  double objective = 0.0;
  for (const double pct : objective_pct_) objective += pct;
  report.E2e("placement_obj", objective_pct_.empty() ? 0.0 : objective / objective_pct_.size(),
             "%");
  report.E2e("ip_solve_s", Median(ilp_s_), "s");
  for (const auto& [name, samples] : {std::pair<const char*, const std::vector<double>*>{
                                          "provision", &provision_s_},
                                      {"SolveIlp", &ilp_s_}}) {
    const Quartiles q = QuartilesOf(*samples);
    char note[160];
    std::snprintf(note, sizeof(note), "%s host time over %zu runs: q1 %.4f / q2 %.4f / q3 %.4f s",
                  name, samples->size(), q.q1, q.q2, q.q3);
    report.notes.push_back(note);
  }
  if (!have_ilp_) return;
  controlplane::VerifyOptions verify;
  verify.max_passes = ilp_options_.model.max_passes;
  const auto verdict = controlplane::Verify(ilp_instance_, last_ilp_.solution, verify);
  report.Check(verdict.ok, "verifier rejected the SolveIlp placement: " + verdict.violation);
  if (!traced_) return;
  const auto sets = static_cast<double>(kCheckedSets);
  for (const auto& [name, unit] : {std::pair<const char*, const char*>{"controlplane.model_build_ms", "ms"},
                                   {"controlplane.approx_s", "s"},
                                   {"controlplane.approx_lp_solves", "count"}}) {
    report.per_layer[name] = {report.per_layer[name].value / sets, unit};
  }
  common::metrics::Registry registry;
  controlplane::ExportSolverMetrics(last_ilp_, registry, "solver");
  for (const auto& counter : registry.Counters()) {
    const auto value = static_cast<double>(counter.value);
    if (counter.name == "solver.nodes") report.Layer("lp.mip_nodes", value, "count");
    if (counter.name == "solver.pivots") report.Layer("lp.simplex_iterations", value, "count");
    if (counter.name == "solver.refactorizations") {
      report.Layer("lp.lu_refactorizations", value, "count");
    }
  }
}

// --- reporting helpers --------------------------------------------------------

namespace {

/// Packets per µs (= Mpps) over one window of batch host times.
double WindowMpps(std::span<const double> batch_us) {
  double busy_us = 0.0;
  for (const double us : batch_us) busy_us += us;
  return busy_us > 0.0 ? kBatch * static_cast<double>(batch_us.size()) / busy_us : 0.0;
}

double WindowP99(std::span<const double> samples) {
  return TailOf(std::vector<double>(samples.begin(), samples.end())).value;
}

}  // namespace

void ReportServe(const ServeStats& stats, std::uint64_t lost, bool traced, Report& report) {
  // Throughput per window of kServeWindow batches, then the median over
  // windows: a burst of host noise (another tenant of the machine) slows
  // the windows it covers and leaves the median alone. Over a whole run,
  // a mean followed those bursts.
  const double batch_p50 = Median(stats.batch_us);
  report.E2e("serve_mpps", WindowedMedian(stats.batch_us, kServeWindow, WindowMpps), "Mpps");
  report.E2e("batch_p50_us", batch_p50, "us");
  const Quartiles batch = QuartilesOf(stats.batch_us);
  char note[192];
  std::snprintf(note, sizeof(note),
                "batch host time over %zu batches in %zu windows: q1 %.1f / q2 %.1f / q3 %.1f "
                "us, whole-run p99 %.1f us",
                stats.batch_us.size(), std::max<std::size_t>(stats.batch_us.size() / kServeWindow, 1),
                batch.q1, batch.q2, batch.q3, TailOf(stats.batch_us).value);
  report.notes.push_back(note);
  const double sent = static_cast<double>(std::max<std::uint64_t>(stats.sent, 1));
  report.E2e("delivered_pct", 100.0 * (1.0 - static_cast<double>(lost) / sent), "%");
  auto& ops = report.ops["serve"];
  ops.attempted += static_cast<std::int64_t>(stats.sent);
  ops.failed += static_cast<std::int64_t>(stats.parse_errors);
  if (!traced) return;
  const double plane = Median(stats.plane_us);
  const double record = Median(stats.record_us);
  // The batch tail is a layer metric, not an end-to-end one: on
  // serve_steady it follows the hypervisor's steal time, which no
  // window filters (README.md).
  report.Layer("core.batch_p99_us", WindowedMedian(stats.batch_us, kServeWindow, WindowP99), "us");
  report.Layer("switchsim.batch_p50_us", plane, "us");
  report.Layer("switchsim.batch_p99_us", WindowedMedian(stats.plane_us, kServeWindow, WindowP99),
               "us");
  const double one_shard = Median(stats.plane_1shard_us);
  report.Layer("switchsim.mpps_1shard", one_shard > 0.0 ? kBatch / one_shard : 0.0, "Mpps");
  // Simulated, so it repeats exactly for a given layout and pass count.
  report.Layer("switchsim.sim_lat_p99_ns", TailOf(stats.sim_latency_ns).value, "ns");
  report.Layer("dataplane.record_batch_us", record, "us");
  report.Layer("common.parallel_for_us", Median(stats.parallel_for_us), "us");
  report.Layer("core.serve_residual_us", batch_p50 - plane - record, "us");
}

void ReportControl(const ControlStats& control, const ReplayStats* replay,
                   std::size_t admit_window, Report& report) {
  for (const auto& [reason, count] : control.refusals) report.refusals[reason] += count;
  report.E2e("admit_p50_us", Median(control.admit_us), "us");
  // A remove is timed from its call, so its slowest samples are host
  // hiccups (hypervisor steal) scattered over the run; a window's tail
  // keeps the few a window holds out of the median.
  report.E2e("remove_p99_us", WindowedMedian(control.remove_us, kRemoveWindow, WindowP99), "us");
  report.E2e("admit_ok_pct",
             control.arrivals > 0 ? 100.0 * static_cast<double>(control.admitted) /
                                        static_cast<double>(control.arrivals)
                                  : 0.0,
             "%");
  if (replay == nullptr) return;
  // An open-loop admit is timed from its due time, and its tail is
  // queueing behind the recompile batch after a write: a workload effect,
  // spread evenly over the run, whose edge a short window's tail would
  // cut. It is a layer metric because it follows hypervisor steal
  // (README.md).
  report.Layer("core.admit_p99_us",
               WindowedMedian(control.admit_us,
                              admit_window > 0 ? admit_window : control.admit_us.size(),
                              WindowP99),
               "us");
  const double alloc = Median(replay->alloc_us);
  const double lp = Median(replay->lp_us);
  const double warm = Median(replay->warm_us);
  report.Layer("dataplane.alloc_p50_us", alloc, "us");
  report.Layer("dataplane.alloc_p99_us", TailOf(replay->alloc_us).value, "us");
  report.Layer("dataplane.dealloc_p50_us", Median(replay->dealloc_us), "us");
  report.Layer("dataplane.dealloc_p99_us", TailOf(replay->dealloc_us).value, "us");
  report.Layer("dataplane.compaction_plan_us", Median(replay->compaction_us), "us");
  report.Layer("dataplane.install_physical_ms", Median(replay->install_physical_ms), "ms");
  report.Layer("compiler.warm_p50_us", warm, "us");
  report.Layer("compiler.warm_p99_us", TailOf(replay->warm_us).value, "us");
  report.Layer("controlplane.admit_lp_p50_us", lp, "us");
  report.Layer("controlplane.admit_lp_p99_us", TailOf(replay->lp_us).value, "us");
  const double lateness = Median(control.lateness_us);
  report.Layer("core.admit_call_p50_us", Median(control.admit_call_us), "us");
  report.Layer("core.admit_residual_p50_us",
               Median(control.admit_us) - alloc - lp - warm - lateness, "us");
  report.Layer("churn.lateness_p50_us", lateness, "us");
  report.Layer("churn.lateness_p99_us", TailOf(control.lateness_us).value, "us");
  double busy_us = 0.0;
  for (const double us : control.admit_call_us) busy_us += us;
  for (const double us : control.remove_us) busy_us += us;
  report.Layer("churn.control_busy_pct",
               control.window_s > 0.0 ? busy_us / (control.window_s * 1e4) : 0.0, "%");
}

void ReportSetup(const std::vector<double>& setup_s, Report& report) {
  report.E2e("setup_s", Median(setup_s), "s");
}

void ReportCounters(const core::SfpSystem& system, Report& report) {
  const auto counters = ExportedCounters(system);
  const auto get = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it != counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  const double packets = get("pipeline.packets");
  report.Layer("switchsim.recirc_per_pkt",
               packets > 0.0 ? get("pipeline.recirculations") / packets : 0.0, "count");
  report.Layer("switchsim.drops_recirc_overload", get("pipeline.drops.recirculation_overload"),
               "count");
  report.Layer("compiler.invalidations", get("compiler.invalidations"), "count");
  report.Layer("compiler.recompiles", get("compiler.recompiles"), "count");
  report.Layer("compiler.fallback_tenants", get("compiler.fallback_tenants"), "count");
  report.Layer("parallelism.xt.compactions", get("parallelism.xt.compactions"), "count");
  report.Layer("solver.warm.hit_pct", get("solver.warm.hit_pct"), "%");
}

}  // namespace sfpbench
