#include "parsim/shard_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

namespace dtdctcp::parsim {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

// Names the kernel lane of mailbox imports: a port's delays are never
// negative, so no port lane shares it.
constexpr SimTime kInboxDelay = -1.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardRunner::ShardRunner(ShardedNetwork& net, ShardRunnerOptions opts)
    : net_(net), opts_(opts), shards_(net.shards()) {
  sims_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    sims_.push_back(&net_.shard_sim(s));
  }
  local_next_.assign(shards_, 0.0);
  inboxes_.resize(shards_);
  telemetry_.shards = shards_;
  telemetry_.shard.assign(shards_, ShardStats{});
  checkers_.resize(shards_);
  want_checkers_ =
      shards_ > 1 && check::compiled() &&
      (opts_.check == ShardRunnerOptions::Check::kForce ||
       (opts_.check == ShardRunnerOptions::Check::kEnv &&
        check::env_requested()));
  window_barrier_ = std::make_unique<std::barrier<WindowCompletion>>(
      static_cast<std::ptrdiff_t>(shards_), WindowCompletion{this});
  publish_barrier_ = std::make_unique<std::barrier<>>(
      static_cast<std::ptrdiff_t>(shards_));
}

ShardRunner::~ShardRunner() {
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_cmd_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void ShardRunner::start_threads() {
  if (!threads_.empty()) return;
  threads_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    threads_.emplace_back([this, s] { worker_main(s); });
  }
}

void ShardRunner::worker_main(std::size_t s) {
  // Fixed shard -> thread binding for the whole runner lifetime: the
  // thread-local checker (if any) observes exactly one shard, and its
  // shadow state stays coherent across run commands.
  if (want_checkers_) {
    checkers_[s] = std::make_unique<check::Checker>(opts_.check_cfg);
    check::set_current(checkers_[s].get());
  }
  std::uint64_t seen = 0;
  for (;;) {
    SimTime target = 0.0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_cmd_.wait(lk, [&] { return stopping_ || cmd_gen_ != seen; });
      if (stopping_) break;
      seen = cmd_gen_;
      target = target_;
    }
    run_rounds(s, target);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_workers_ == 0) cv_done_.notify_all();
    }
  }
  check::set_current(nullptr);
}

void ShardRunner::run_command(SimTime target) {
  const auto t0 = std::chrono::steady_clock::now();
  clock_synced_ = false;  // no worker is running yet; plain write is safe
  if (shards_ == 1) {
    // Inline, threadless: the caller's thread is the one worker, its
    // hook scope (if any) untouched. The barriers have count 1, so the
    // same round loop runs unchanged.
    target_ = target;
    run_rounds(0, target);
  } else {
    start_threads();
    {
      std::lock_guard<std::mutex> lk(mu_);
      target_ = target;
      ++cmd_gen_;
      pending_workers_ = shards_;
    }
    cv_cmd_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_workers_ == 0; });
  }
  telemetry_.wall_seconds += seconds_since(t0);
}

void ShardRunner::run_until(SimTime t) { run_command(t); }

void ShardRunner::run() { run_command(kInf); }

void ShardRunner::on_window_barrier() noexcept {
  ++telemetry_.rounds;
  SimTime t_min = kInf;
  for (const SimTime t : local_next_) {
    if (t < t_min) t_min = t;
  }
  if (t_min == kInf || t_min > target_) {
    // Nothing left at or before the target — but a finite-target
    // command must still advance every shard clock to the target (the
    // serial run_until does so even on an empty queue). One final
    // inclusive pass does that; the flag keeps it from repeating.
    if (target_ < kInf && !clock_synced_) {
      clock_synced_ = true;
      round_done_ = false;
      final_window_ = true;
      window_end_ = target_;
      return;
    }
    round_done_ = true;
    return;
  }
  round_done_ = false;
  const SimTime window_end = t_min + net_.lookahead();
  if (window_end > target_) {
    // The window covers the rest of the command: run inclusively to the
    // target and advance every clock to it, exactly like the serial
    // simulator's run_until. Messages generated at t <= target arrive
    // at >= T_min + L = window_end > target, so none can be needed
    // before the command ends.
    clock_synced_ = true;
    final_window_ = true;
    window_end_ = target_;
  } else {
    final_window_ = false;
    window_end_ = window_end;
  }
}

void ShardRunner::drain_inboxes(std::size_t s, ShardStats& st) {
  sim::Simulator& sim = *sims_[s];
  Inbox& in = inboxes_[s];
  // One batch: source shards ascending, entries in push order, each
  // entry due at the time reserve_key will give it (clamped to now).
  const SimTime now = sim.now();
  for (std::size_t src = 0; src < shards_; ++src) {
    if (src == s) continue;
    Mailbox* mb = net_.mailbox(src, s);
    if (mb == nullptr || mb->empty()) continue;
    if (mb->size() > st.mailbox_peak) st.mailbox_peak = mb->size();
    for (const Mailbox::Entry& e : mb->entries()) {
      // NaN clamps too, as in the kernel.
      const SimTime due = e.when >= now ? e.when : now;
      in.batch.push_back(
          Arrival{due, static_cast<std::uint32_t>(in.batch.size()), &e});
    }
  }
  if (in.batch.empty()) return;
  // The tie-break contract is (time, src shard, mailbox seq): what the
  // kernel's (time, seq) order gives if the batch is scheduled entry
  // by entry, entry i taking sequence number S + i. Sorting the batch
  // by (due, i) — a stable sort by time — and reserving the keys in
  // that order hands out the same S..S+n-1, ranking the entries among
  // themselves as before. Any other event's sequence number lies
  // outside that range, so it compares with each entry as before too.
  // Every entry thus keeps its place in the shard's total order, and
  // the keys ascend, so the whole batch joins one lane behind a single
  // lane head (an entry ordering before an earlier batch's leftovers
  // in the lane takes the plain heap).
  std::sort(in.batch.begin(), in.batch.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.due != b.due ? a.due < b.due : a.rank < b.rank;
            });
  in.lane = sim.lane(kInboxDelay, in.lane);
  for (const Arrival& a : in.batch) {
    // The uid belongs to the exporting shard's checker (terminated
    // there as "exported"); clear it so this shard's checker adopts
    // the packet as a fresh injection instead of colliding with a
    // live local uid. uids are checker-only state, never simulation
    // state, so this cannot affect results.
    sim::Packet pkt = a.entry->pkt;
    pkt.uid = 0;
    auto arrive = [peer = a.entry->peer, pkt] { peer->receive(pkt); };
    static_assert(sim::EventClosure::kFitsInline<decltype(arrive)>);
    sim.lane_at(in.lane, sim.reserve_key(a.entry->when), std::move(arrive));
  }
  in.batch.clear();
  for (std::size_t src = 0; src < shards_; ++src) {
    Mailbox* mb = src == s ? nullptr : net_.mailbox(src, s);
    if (mb == nullptr) continue;
    st.drained += mb->size();
    mb->clear();
  }
}

void ShardRunner::run_rounds(std::size_t s, SimTime target) {
  sim::Simulator& sim = *sims_[s];
  ShardStats& st = telemetry_.shard[s];
  for (;;) {
    drain_inboxes(s, st);
    local_next_[s] = sim.next_event_time();
    window_barrier_->arrive_and_wait();
    if (round_done_) break;
    const auto t0 = std::chrono::steady_clock::now();
    if (final_window_) {
      sim.run_until(target);
    } else {
      sim.run_window(window_end_);
    }
    st.busy_seconds += seconds_since(t0);
    ++st.windows;
    publish_barrier_->arrive_and_wait();
  }
  st.events = sim.events_processed();
  st.exported = 0;
  for (std::size_t dst = 0; dst < shards_; ++dst) {
    const Mailbox* mb = dst == s ? nullptr : net_.mailbox(s, dst);
    if (mb != nullptr) st.exported += mb->pushed();
  }
}

bool ShardRunner::finalize() {
  bool ok = true;
  std::uint64_t pushed_total = 0;
  for (std::size_t src = 0; src < shards_; ++src) {
    for (std::size_t dst = 0; dst < shards_; ++dst) {
      if (src == dst) continue;
      const Mailbox* mb = net_.mailbox(src, dst);
      if (mb == nullptr) continue;
      pushed_total += mb->pushed();
      if (!mb->empty() || mb->pushed() != mb->drained()) {
        ok = false;
        std::fprintf(stderr,
                     "parsim: mailbox %zu->%zu unbalanced: pushed=%llu "
                     "drained=%llu pending=%zu\n",
                     src, dst, static_cast<unsigned long long>(mb->pushed()),
                     static_cast<unsigned long long>(mb->drained()),
                     mb->size());
      }
    }
  }
  bool have_checkers = false;
  std::uint64_t exported_total = 0;
  for (const auto& c : checkers_) {
    if (c == nullptr) continue;
    have_checkers = true;
    exported_total += c->totals().exported;
  }
  if (have_checkers) {
    if (exported_total != pushed_total) {
      ok = false;
      std::fprintf(stderr,
                   "parsim: cross-shard ledger broken: checkers exported "
                   "%llu but mailboxes carried %llu\n",
                   static_cast<unsigned long long>(exported_total),
                   static_cast<unsigned long long>(pushed_total));
    }
    for (const auto& c : checkers_) {
      if (c == nullptr) continue;
      c->finalize();
      if (c->violation_count() > 0) ok = false;
    }
  }
  return ok;
}

void ShardRunner::export_metrics(stats::MetricsRegistry& reg) const {
  reg.gauge("parsim.shards").set(static_cast<double>(shards_));
  reg.counter("parsim.rounds").add(telemetry_.rounds);
  if (net_.lookahead() < kInf) {
    reg.gauge("parsim.lookahead_s").set(net_.lookahead());
  }
  for (std::size_t s = 0; s < shards_; ++s) {
    const ShardStats& st = telemetry_.shard[s];
    const std::string prefix = "parsim.shard" + std::to_string(s);
    reg.counter(prefix + ".events").add(st.events);
    reg.counter(prefix + ".windows").add(st.windows);
    reg.counter(prefix + ".mailbox_drained").add(st.drained);
    reg.counter(prefix + ".mailbox_pushed").add(st.exported);
    reg.gauge(prefix + ".mailbox_peak")
        .set(static_cast<double>(st.mailbox_peak));
    reg.gauge(prefix + ".busy_seconds").set(st.busy_seconds);
  }
}

}  // namespace dtdctcp::parsim
