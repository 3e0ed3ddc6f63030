// ShardRunner: conservative-synchronization executor for a partitioned
// simulation (a synchronous time-window / null-message-round protocol).
//
// One worker thread per shard (shard 0's "worker" is the calling thread
// when shards == 1), each driving its own sim::Simulator. Execution
// proceeds in rounds of two barriers:
//
//   1. drain:   each shard imports its inbound mailboxes — one batch,
//               source shards ascending and entries in FIFO order,
//               stably sorted by arrival time and scheduled through one
//               kernel lane, so same-timestamp arrivals from different
//               shards tie-break deterministically by (time, src shard,
//               seq) — then publishes its next-event time.
//   2. window:  a barrier completion computes T_min = min over shards
//               of the next-event times and opens the safe window
//               [T_min, T_min + L), where L is the minimum propagation
//               delay over cut links (ShardedNetwork::lookahead).
//               Safety: a packet generated at t >= T_min arrives at
//               t + tx + L' >= T_min + L, i.e. strictly after the
//               window — no shard can receive a message in its past.
//   3. execute: each shard runs events strictly below the window end
//               (Simulator::run_window; the shard clock stays at its
//               last local event, so past-time clamping remains a
//               *local* judgement). When the window covers the
//               command's target time, the final step is run_until —
//               inclusive, and advancing every clock to the target
//               exactly as the serial simulator would.
//   4. publish: a second barrier makes this round's mailbox pushes
//               visible before the next drain.
//
// Determinism: each shard's event order is the kernel's (time, seq)
// total order; cross-shard arrival order is fixed by the drain rule;
// window bounds are pure functions of deterministic state. Hence a
// fixed shard count is byte-identical run-to-run, and one shard is
// byte-identical to the serial simulator (the lookahead is +inf, so the
// whole command executes as a single run_until/run_window — the exact
// serial code path).
//
// Threads are persistent across run commands with a fixed shard->thread
// binding, so per-shard invariant checkers (thread-local hooks) observe
// one shard each for the whole run; the cross-shard conservation ledger
// (exported == mailbox pushes == drains) closes in finalize().
#pragma once

#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "check/checker.h"
#include "parsim/sharded_network.h"
#include "stats/metrics.h"
#include "util/units.h"

namespace dtdctcp::parsim {

/// Per-shard load/telemetry counters (RunnerTelemetry's intra-sim
/// sibling). Simulation-determining values are exact; busy_seconds is
/// wall-clock and varies run to run.
struct ShardStats {
  std::uint64_t events = 0;       ///< kernel events processed (lifetime)
  std::uint64_t windows = 0;      ///< safe windows executed
  std::uint64_t drained = 0;      ///< mailbox entries imported
  std::uint64_t exported = 0;     ///< mailbox entries pushed
  std::uint64_t mailbox_peak = 0; ///< largest single inbox batch
  double busy_seconds = 0.0;      ///< wall time inside window execution
};

struct ShardRunnerTelemetry {
  std::size_t shards = 0;
  std::uint64_t rounds = 0;   ///< barrier (null-message) rounds
  double wall_seconds = 0.0;  ///< wall time inside run commands
  std::vector<ShardStats> shard;

  double busy_seconds_total() const {
    double t = 0.0;
    for (const ShardStats& s : shard) t += s.busy_seconds;
    return t;
  }
  /// Effective parallelism achieved (<= shards; barriers and load
  /// imbalance eat the rest).
  double speedup() const {
    return wall_seconds > 0.0 ? busy_seconds_total() / wall_seconds : 0.0;
  }
};

struct ShardRunnerOptions {
  enum class Check : std::uint8_t {
    kEnv,    ///< per-shard checkers iff compiled in and DTDCTCP_CHECK=1
    kForce,  ///< always install per-shard checkers (when compiled in)
    kOff,
  };
  /// Per-shard invariant checkers on the worker threads (multi-shard
  /// only; with one shard the caller's own CheckScope stays in charge,
  /// preserving exact serial semantics).
  Check check = Check::kEnv;
  check::CheckConfig check_cfg;
};

class ShardRunner {
 public:
  explicit ShardRunner(ShardedNetwork& net, ShardRunnerOptions opts = {});
  ~ShardRunner();
  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  /// Advances every shard to exactly time `t` (events at <= t run; all
  /// shard clocks end at t). Between calls the caller may read
  /// cross-shard state safely — no worker is running.
  void run_until(SimTime t);

  /// Runs until every shard's queue and every mailbox is empty.
  void run();

  const ShardRunnerTelemetry& telemetry() const { return telemetry_; }

  /// Registers parsim.* counters/gauges (rounds, per-shard events,
  /// windows, mailbox totals and peaks, busy seconds) so shard load
  /// imbalance is observable alongside the flow-level metrics.
  void export_metrics(stats::MetricsRegistry& reg) const;

  /// Per-shard checkers installed on the worker threads; empty slots
  /// when checking is off, not compiled in, or shards == 1. Valid after
  /// the first run command returns.
  const std::vector<std::unique_ptr<check::Checker>>& checkers() const {
    return checkers_;
  }

  /// End-of-run audit; call after run(). Verifies every mailbox is
  /// empty with pushed == drained, and — when per-shard checkers are
  /// installed — that the cross-shard ledger closes (sum of checker
  /// "exported" == sum of mailbox pushes) and every checker's own
  /// conservation audit passes. Returns false (and reports to stderr)
  /// on any mismatch.
  bool finalize();

 private:
  /// Barrier completion must be nothrow-invocable; std::function is
  /// not, so the completion is this tiny named functor.
  struct WindowCompletion {
    ShardRunner* self;
    void operator()() noexcept { self->on_window_barrier(); }
  };

  void start_threads();
  void worker_main(std::size_t s);
  void run_command(SimTime target);
  void run_rounds(std::size_t s, SimTime target);
  void drain_inboxes(std::size_t s, ShardStats& st);
  void on_window_barrier() noexcept;

  ShardedNetwork& net_;
  ShardRunnerOptions opts_;
  std::size_t shards_;
  bool want_checkers_ = false;
  std::vector<sim::Simulator*> sims_;

  // Window-protocol state. local_next_ is written per-shard before the
  // window barrier; the rest is written only by the barrier completion.
  // All reads are ordered by the barriers themselves.
  std::vector<SimTime> local_next_;
  SimTime target_ = 0.0;
  SimTime window_end_ = 0.0;
  bool final_window_ = false;
  bool round_done_ = false;
  /// A finite-target command has issued its inclusive run_until pass
  /// (which advances every shard clock to the target exactly once).
  bool clock_synced_ = false;

  // Mailbox import state, one per shard, touched only by the shard's
  // own worker (cache-line aligned so neighbours do not share a line):
  // the batch being sorted, reused across rounds, and the memoized
  // lane it is scheduled through.
  struct Arrival {
    SimTime due;          ///< arrival time, clamped to the shard clock
    std::uint32_t rank;   ///< position in the batch as drained
    const Mailbox::Entry* entry;
  };
  struct alignas(64) Inbox {
    std::vector<Arrival> batch;
    sim::Simulator::LaneId lane = sim::Simulator::kNoLane;
  };
  std::vector<Inbox> inboxes_;

  ShardRunnerTelemetry telemetry_;
  std::vector<std::unique_ptr<check::Checker>> checkers_;

  // Command channel (multi-shard only): main publishes a target time,
  // workers run the round loop for it, main blocks until all report in.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_cmd_;
  std::condition_variable cv_done_;
  std::uint64_t cmd_gen_ = 0;
  std::size_t pending_workers_ = 0;
  bool stopping_ = false;

  std::unique_ptr<std::barrier<WindowCompletion>> window_barrier_;
  std::unique_ptr<std::barrier<>> publish_barrier_;
};

}  // namespace dtdctcp::parsim
