// The sfpbench workloads. Each builds its inputs from the seed before
// any timer starts, boots the system it serves (the untimed warm-up
// set-up), and runs a window of --seconds of workload time. Into that
// window it interleaves side tasks: kSetups more set-ups (setup_s is
// their median) and the provisioning probe, so that every workload
// reports every end-to-end metric (bench.h, Window, ProvisionProbe).
// The outputs are checked after the window.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "bench.h"
#include "nf/nf.h"
#include "workload/sfc_gen.h"

namespace sfpbench {

using namespace sfp;

namespace {

constexpr int kSetups = 30;
/// Pre-generated batches per serve loop (replayed cyclically).
constexpr int kTrafficBatches = 32;
constexpr int kFlowsPerTenant = 64;

std::vector<dataplane::TenantId> TenantIds(const std::vector<dataplane::Sfc>& sfcs) {
  std::vector<dataplane::TenantId> ids;
  for (const auto& sfc : sfcs) ids.push_back(sfc.tenant);
  return ids;
}

/// Packets the recirculation port dropped (overload or pass guard):
/// the serve loss. NF policy drops are verdicts, not loss.
std::uint64_t RecirculationLoss(const core::SfpSystem& system) {
  const auto& pipeline = system.data_plane().pipeline();
  return pipeline.packets_dropped_by(switchsim::DropReason::kRecirculationOverload) +
         pipeline.packets_dropped_by(switchsim::DropReason::kRecirculationGuard);
}

/// Interpreted twin of a booted population (its own throwaway books).
std::unique_ptr<core::SfpSystem> InterpretedTwin(const Population& population) {
  Report scratch;
  ControlStats control;
  return Boot(population, /*compiled=*/false, scratch, control, nullptr);
}

// --- serve_steady -----------------------------------------------------------

constexpr int kSteadyTenants = 64;
constexpr int kSteadyRulesPerNf = 16;

/// 64 tenants with firewall -> load balancer -> classifier -> router
/// chains on a layout holding those NFs in that stage order, so every
/// chain runs in a single pass and nothing recirculates.
Population SteadyPopulation(Rng& rng) {
  Population population;
  population.layout = {{nf::NfType::kFirewall},
                       {nf::NfType::kLoadBalancer},
                       {nf::NfType::kClassifier},
                       {nf::NfType::kRouter}};
  for (int t = 1; t <= kSteadyTenants; ++t) {
    dataplane::Sfc sfc;
    sfc.tenant = static_cast<dataplane::TenantId>(t);
    sfc.bandwidth_gbps = 5.0;
    for (const auto& stage : population.layout) {
      nf::NfConfig config;
      config.type = stage.front();
      config.rules = nf::MakeNf(config.type)->GenerateRules(rng, kSteadyRulesPerNf);
      sfc.chain.push_back(std::move(config));
    }
    population.tenants.push_back(std::move(sfc));
  }
  return population;
}

}  // namespace

void RunServeSteady(const RunOptions& options, Report& report) {
  Rng rng(options.seed);
  const auto population = SteadyPopulation(rng);
  const std::uint64_t traffic_seed = rng.Next();
  const auto pool = MakeProvisionPool();
  const auto tenants = TenantIds(population.tenants);
  const auto make_traffic = [&] {
    Rng traffic_rng(traffic_seed);
    return MakeTraffic(tenants, kFlowsPerTenant, /*frame_bytes=*/64, kTrafficBatches,
                       /*gap_ns=*/0.0, traffic_rng);
  };

  ControlStats warmup;
  const auto system = Boot(population, /*compiled=*/true, report, warmup, nullptr);
  Traffic traffic = make_traffic();
  for (const auto tenant : tenants) {
    const auto* allocation = system->data_plane().FindAllocation(tenant);
    report.Check(allocation != nullptr && allocation->passes == 1,
                 "serve_steady tenant " + std::to_string(tenant) + " is not single-pass");
  }
  ServeStats stats;
  {
    auto twin = InterpretedTwin(population);
    CheckAgainstInterpreted(*system, *twin, traffic.batches[0], report);
    stats.sent += traffic.batches[0].size();
    stats.sent_bytes += traffic.batch_bytes[0];
  }
  ProvisionProbe probe(pool, options.trace);
  probe.WarmUp(report);

  // A set-up boots the population on a fresh system, as the served one
  // was booted, and generates its traffic. Its admits, and the removes
  // that then empty the fresh system, are this workload's admit and
  // remove samples (closed loop). The served system sees no control
  // operation.
  ControlStats control;
  std::vector<ControlOp> log;  // the last set-up's, for the twin replay
  std::vector<double> setup_s;
  Window window(options.seconds);
  window.Spread(kSetups, [&](int) {
    log.clear();
    const auto t0 = Clock::now();
    const auto fresh = Boot(population, /*compiled=*/true, report, control, &log);
    [[maybe_unused]] const auto fresh_traffic = make_traffic();
    setup_s.push_back(Seconds(Clock::now() - t0));
    for (const auto tenant : tenants) {
      TimedRemove(*fresh, tenant, report, control);
      log.push_back({false, nullptr, tenant});
    }
    report.Check(fresh->Stats().entries_used == 0,
                 "rule entries left after removing every tenant");
  });
  window.Spread(ProvisionProbe::kProvisions, [&](int set) { probe.Provision(set, report); });
  window.Spread(ProvisionProbe::kIlpSolves, [&](int) { probe.SolveIlp(report); });

  common::WorkerPool workers(options.nproc);
  Server server(*system, traffic, workers, options.nproc, options.trace, stats);
  window.Start();
  while (window.Open()) {
    window.RunDue();
    server.ServeOne();
  }
  window.Finish();

  CheckTelemetry(*system, tenants, stats, report);
  ReportServe(stats, RecirculationLoss(*system), options.trace, report);
  if (options.trace) ReportCounters(*system, report);
  ReplayStats replay;
  if (options.trace) ReplayOnTwin(population, log, replay);
  // Each set-up fills an empty system to 64 tenants: its admit tail is
  // taken on its own, so a burst of host noise during a few set-ups
  // moves few of the tails whose median is reported.
  ReportControl(control, options.trace ? &replay : nullptr, kSteadyTenants, report);
  ReportSetup(setup_s, report);
  probe.Finish(report);
}

// --- churn_mixed ------------------------------------------------------------

namespace {

/// Served tenants. A write invalidates their plans and the next batch
/// recompiles them, so this count sets how long an arrival can wait
/// behind a batch.
constexpr int kResidents = 4;
/// Mean live churn population (Little's law: arrival rate x mean
/// lifetime) and the fixed open-loop arrival rate.
constexpr int kChurnPopulation = 96;
constexpr double kArrivalsPerSecond = 20.0;
/// Rules per NF of every churn_mixed chain.
constexpr int kChurnRulesPerNf = 8;
constexpr double kLifetimeShape = 1.5;
/// Tenant ids are VLAN VIDs: 12 bits, 0 reserved.
constexpr dataplane::TenantId kMaxTenantId = 4095;
/// Virtual ns between resident packets: sets the recirculation port's
/// offered load. IMC'10-mix frames average about 780 wire bytes, 62 ns
/// of the 100 Gbps port, and every resident folds into 2 or 3 passes,
/// so the port carries 1 to 2 recirculations per packet. At 200 ns it
/// runs at 31-62%, below capacity for every seed's residents. At 100 ns
/// the seeds whose residents averaged 1.75 recirculations overloaded it
/// and lost 6% of their packets, while the others lost none.
constexpr double kResidentGapNs = 200.0;

struct ChurnEvent {
  double at_s = 0.0;
  bool arrive = true;
  std::size_t sfc = 0;  // index into ChurnPlan::sfcs
};

/// Open-loop schedule, fixed by the seed before any timer starts.
struct ChurnPlan {
  /// Churn tenants admitted at boot (the steady population).
  std::vector<dataplane::Sfc> initial;
  /// Every churn tenant's chain: the initial population, then arrivals.
  std::vector<dataplane::Sfc> sfcs;
  std::vector<ChurnEvent> events;
};

dataplane::Sfc ChurnArrival(Rng& rng) {
  const int length = static_cast<int>(rng.UniformInt(3, 7));
  const double gbps = std::min(rng.Pareto(1.6, 3.0), 100.0);
  return workload::GenerateConcreteSfc(0, length, gbps, rng, kChurnRulesPerNf);
}

/// Poisson arrivals over [0, seconds) with Pareto lifetimes around a
/// mean population of kChurnPopulation; the initial population is
/// admitted at boot and departs on the same lifetime law. Tenant ids
/// are recycled FIFO in event order, so live ids never collide.
ChurnPlan MakeChurnPlan(double seconds, Rng& rng) {
  const double mean_lifetime = kChurnPopulation / kArrivalsPerSecond;
  const double scale = mean_lifetime * (kLifetimeShape - 1.0) / kLifetimeShape;
  ChurnPlan plan;
  std::vector<ChurnEvent> events;
  for (int i = 0; i < kChurnPopulation; ++i) {
    plan.sfcs.push_back(ChurnArrival(rng));
    events.push_back({rng.Pareto(kLifetimeShape, scale), false, plan.sfcs.size() - 1});
  }
  for (double t = rng.Exponential(1.0 / kArrivalsPerSecond); t < seconds;
       t += rng.Exponential(1.0 / kArrivalsPerSecond)) {
    plan.sfcs.push_back(ChurnArrival(rng));
    events.push_back({t, true, plan.sfcs.size() - 1});
    events.push_back({t + rng.Pareto(kLifetimeShape, scale), false, plan.sfcs.size() - 1});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.at_s < b.at_s; });

  std::deque<dataplane::TenantId> free_ids;
  for (dataplane::TenantId id = kResidents + 1; id <= kMaxTenantId; ++id) free_ids.push_back(id);
  for (int i = 0; i < kChurnPopulation; ++i) {
    plan.sfcs[static_cast<std::size_t>(i)].tenant = free_ids.front();
    free_ids.pop_front();
  }
  for (const auto& event : events) {
    auto& sfc = plan.sfcs[event.sfc];
    if (event.arrive) {
      sfc.tenant = free_ids.front();
      free_ids.pop_front();
    } else {
      free_ids.push_back(sfc.tenant);
    }
    if (event.at_s < seconds) plan.events.push_back(event);
  }
  plan.initial.assign(plan.sfcs.begin(), plan.sfcs.begin() + kChurnPopulation);
  return plan;
}

/// A 4-stage switch with cross-tenant pass packing and a finite
/// recirculation port. The firewall sits only in stage 0 and the NAT
/// only in stage 3; a resident chain runs the NAT before the firewall,
/// and the firewall reads what the NAT rewrites, so every resident
/// folds into at least two passes.
Population ChurnPopulation(Rng& rng) {
  Population population;
  population.config.num_stages = 4;
  population.config.backplane_gbps = 3200.0;
  population.config.cross_tenant_packing = true;
  population.config.recirculation_gbps = 100.0;
  // Shards serve a batch's packets out of virtual-time order, up to the
  // batch's span (4096 x kResidentGapNs = 0.82 ms) apart; the port must
  // queue that skew rather than drop it.
  population.config.recirculation_queue_ns = 2e6;
  population.incremental_admission = true;
  population.layout = {{nf::NfType::kFirewall, nf::NfType::kLoadBalancer},
                       {nf::NfType::kClassifier, nf::NfType::kRouter},
                       {nf::NfType::kRateLimiter, nf::NfType::kLoadBalancer},
                       {nf::NfType::kNat, nf::NfType::kClassifier}};
  for (int t = 1; t <= kResidents; ++t) {
    auto sfc = workload::GenerateConcreteSfc(static_cast<dataplane::TenantId>(t),
                                             nf::kNumNfTypes, 2.0, rng, kChurnRulesPerNf);
    const auto at = [&sfc](nf::NfType type) {
      return std::find_if(sfc.chain.begin(), sfc.chain.end(),
                          [type](const nf::NfConfig& c) { return c.type == type; });
    };
    const auto fw = at(nf::NfType::kFirewall);
    const auto nat = at(nf::NfType::kNat);
    if (fw < nat) std::iter_swap(fw, nat);
    population.tenants.push_back(std::move(sfc));
  }
  return population;
}

}  // namespace

void RunChurnMixed(const RunOptions& options, Report& report) {
  Rng rng(options.seed);
  auto population = ChurnPopulation(rng);
  const std::uint64_t traffic_seed = rng.Next();
  const auto pool = MakeProvisionPool();
  Rng plan_rng(rng.Next());
  const auto plan = MakeChurnPlan(options.seconds, plan_rng);
  population.tenants.insert(population.tenants.end(), plan.initial.begin(), plan.initial.end());
  std::vector<dataplane::TenantId> residents;
  for (int t = 1; t <= kResidents; ++t) residents.push_back(static_cast<dataplane::TenantId>(t));

  const auto make_traffic = [&] {
    Rng traffic_rng(traffic_seed);
    return MakeTraffic(residents, kFlowsPerTenant, /*frame_bytes=*/0, kTrafficBatches,
                       kResidentGapNs, traffic_rng);
  };

  // The boot's admits only build the state the churn starts from: the
  // twin replays them untimed.
  ControlStats boot_control;
  std::vector<ControlOp> log;
  auto system = Boot(population, /*compiled=*/true, report, boot_control, &log,
                     /*timed_log=*/false);
  Traffic traffic = make_traffic();
  for (const auto tenant : residents) {
    const auto* allocation = system->data_plane().FindAllocation(tenant);
    report.Check(allocation != nullptr && allocation->passes >= 2,
                 "churn_mixed resident " + std::to_string(tenant) + " does not recirculate");
  }
  std::map<dataplane::TenantId, const dataplane::Sfc*> live;
  for (const auto& sfc : population.tenants) {
    if (system->data_plane().IsAllocated(sfc.tenant)) live[sfc.tenant] = &sfc;
  }

  // Batch 0 (stamped from virtual time 0) goes to the interpreted twin
  // check; the serve loop's restamping then continues past it.
  ServeStats stats;
  {
    auto twin = InterpretedTwin(population);
    CheckAgainstInterpreted(*system, *twin, traffic.batches[0], report);
    stats.sent += traffic.batches[0].size();
    stats.sent_bytes += traffic.batch_bytes[0];
  }
  ProvisionProbe probe(pool, options.trace);
  probe.WarmUp(report);

  std::vector<double> setup_s;
  Window window(options.seconds);
  window.Spread(kSetups, [&](int) {
    ControlStats scratch;
    const auto t0 = Clock::now();
    [[maybe_unused]] const auto fresh = Boot(population, /*compiled=*/true, report, scratch, nullptr);
    [[maybe_unused]] const auto fresh_traffic = make_traffic();
    setup_s.push_back(Seconds(Clock::now() - t0));
  });
  window.Spread(ProvisionProbe::kProvisions, [&](int set) { probe.Provision(set, report); });
  window.Spread(ProvisionProbe::kIlpSolves, [&](int) { probe.SolveIlp(report); });

  const int shards = std::max(1, options.nproc - 1);
  common::WorkerPool workers(shards);
  Server server(*system, traffic, workers, shards, options.trace, stats, /*first_slot=*/1);

  // One caller takes turns: every control event whose due time has
  // passed runs (open loop: latency counts from the due time), then one
  // serve batch. Batches therefore never overlap a control operation;
  // what a write costs the next reads (plan invalidation, recompiles)
  // shows in the batch times, and a slow batch delays the next arrival
  // (lateness). The schedule runs on workload time, so the window's
  // side tasks delay no arrival.
  ControlStats control;
  window.Start();
  std::size_t next_event = 0;
  while (window.Open()) {
    window.RunDue();
    while (next_event < plan.events.size() && plan.events[next_event].at_s <= window.Now()) {
      const auto& event = plan.events[next_event++];
      const double late_s = window.Now() - event.at_s;
      const auto& sfc = plan.sfcs[event.sfc];
      if (event.arrive) {
        control.lateness_us.push_back(late_s * 1e6);
        const auto due = Clock::now() - std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(late_s));
        if (TimedAdmit(*system, sfc, due, report, control)) live[sfc.tenant] = &sfc;
        log.push_back({true, &sfc, sfc.tenant});
      } else if (live.erase(sfc.tenant) > 0) {
        TimedRemove(*system, sfc.tenant, report, control);
        log.push_back({false, nullptr, sfc.tenant});
      }
    }
    server.ServeOne();
  }
  control.window_s = window.Now();
  window.Finish();

  // Reads beside writes must leave the books consistent.
  const auto audit = system->data_plane().AuditXtLedger();
  report.Check(audit.empty(), "AuditXtLedger: " + (audit.empty() ? std::string() : audit.front()));
  std::vector<const dataplane::Sfc*> live_sfcs;
  std::int64_t lost_tenants = 0;
  for (const auto& [tenant, sfc] : live) {
    live_sfcs.push_back(sfc);
    if (!system->data_plane().IsAllocated(tenant)) ++lost_tenants;
  }
  const auto books = system->Stats();
  report.Check(books.entries_used == ExpectedEntries(live_sfcs),
               "entries_used " + std::to_string(books.entries_used) + " != sum over live tenants " +
                   std::to_string(ExpectedEntries(live_sfcs)));
  report.Check(books.tenants == static_cast<int>(live.size()),
               "system holds " + std::to_string(books.tenants) + " tenants, benchmark books " +
                   std::to_string(live.size()));
  const auto counters = ExportedCounters(*system);
  const auto compactions = counters.contains("parallelism.xt.compactions")
                               ? counters.at("parallelism.xt.compactions")
                               : 0;
  // Compaction moves run through the atomic re-provision path; a move
  // that diverged loses its tenant's rules.
  auto& reprovision = report.ops["reprovision"];
  reprovision.attempted += static_cast<std::int64_t>(compactions) + lost_tenants;
  reprovision.failed += lost_tenants;

  CheckTelemetry(*system, residents, stats, report);
  ReportServe(stats, RecirculationLoss(*system), options.trace, report);
  if (options.trace) ReportCounters(*system, report);

  ReplayStats replay;
  if (options.trace) ReplayOnTwin(population, log, replay);
  ReportControl(control, options.trace ? &replay : nullptr, /*admit_window=*/0, report);
  ReportSetup(setup_s, report);
  probe.Finish(report);
}

}  // namespace sfpbench
