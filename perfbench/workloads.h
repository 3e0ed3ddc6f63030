// The benchmark's workloads: their job grids, the public harness calls
// that the end-to-end metrics time, and bench-side rebuilds of the same
// jobs from public building blocks that the tracer can instrument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dumbbell.h"
#include "core/incast_experiment.h"
#include "parsim/fabric.h"
#include "sim/counters.h"
#include "tracer.h"

namespace perfbench {

enum class Workload { kDumbbell, kIncast, kFabric };

/// One harness call. A workload runs its jobs back to back (a closed
/// loop); one pass over all of them is a round.
struct Job {
  std::string name;
  Workload kind = Workload::kDumbbell;
  dtdctcp::core::DumbbellConfig dumbbell;
  dtdctcp::core::IncastExperimentConfig incast;
  dtdctcp::parsim::FabricConfig fabric;
};

/// The shard count `fabric_sharded` is defined with. Fixed, never read
/// from the host: each shard count simulates a different run. Two, not
/// one per vCPU, so that a 4-vCPU host keeps spare CPUs: the shards meet
/// at a barrier every window, and time stolen from any shard's vCPU
/// stalls them all.
constexpr std::size_t kFabricShards = 2;

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload& out);

/// The job grid of a workload, its inputs derived from `seed`. `tiny`
/// shrinks every job to a fraction of a second for the self-test.
std::vector<Job> make_jobs(Workload w, std::uint64_t seed, bool tiny);

/// What one run of a job produced. `digest` fingerprints the simulated
/// outcome (every deterministic field of the harness result), so two
/// runs of one job agree exactly or not at all.
struct Outcome {
  std::uint64_t digest = 0;
  double wall_s = 0.0;   ///< the whole harness call
  double cpu_s = 0.0;    ///< process CPU time of the call, all threads
  double setup_s = 0.0;  ///< fabric: call time minus its traffic run
  std::uint64_t pkts = 0;     ///< switch-port transmissions, as reported
  std::uint64_t events = 0;
  std::uint64_t flows = 0;       ///< flows (incast: worker responses)
  std::uint64_t flows_done = 0;  ///< of which completed
  double sim_s = 0.0;            ///< simulated seconds
  bool ledger_ok = true;
  std::uint64_t check_violations = 0;
  dtdctcp::parsim::ShardRunnerTelemetry telemetry;

  // Exact counts only the rebuilt run can read.
  std::uint64_t timers_cancelled = 0;
  std::uint64_t past_clamps = 0;
  sim::Counters switches;  ///< summed over every switch egress
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

/// Runs the job through its public harness entry point
/// (core::run_dumbbell, core::run_incast, parsim::run_fabric). Counts
/// the harness does not report stay zero.
Outcome run_harness(const Job& job);

/// Runs the job's set-up alone: the harness call at zero simulated
/// duration (incast: one query of one segment per worker). Returns
/// host seconds.
double run_setup(const Job& job);

/// Rebuilds the job from public building blocks and runs it, timed by
/// `ins` when it is on. Must reproduce run_harness's digest exactly.
Outcome run_rebuilt(const Job& job, Instrument& ins);

}  // namespace perfbench
