// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-job K] [--trace-dir DIR]
//
// Runs one workload's jobs back to back for S host seconds and prints
// each metric as "metric <name> <value> <unit>", then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, timed through the
// public harness entry points. With --trace 1 they are the per-layer
// ones: counts from the untraced jobs, self times from a traced rebuild
// of the same jobs that must reproduce their digests exactly.
//
// Every job's output is checked: its digest must equal the reference
// run's (a plain rebuild of the same job), every finite flow must
// complete, no event may be scheduled in the past, and sharded runs
// must close their cross-shard ledger. --corrupt-job K flips the
// digest of the K-th measured job so a self-test can show the check
// counts it. --tiny shrinks every job for that self-test.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <queue>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  long corrupt_job = -1;
  std::string trace_dir = ".bench_build/traces";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--corrupt-job") {
      a.corrupt_job = std::strtol(v.c_str(), nullptr, 10);
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Operations per calibration, and the calibration time that defines a
/// reference host second (its median on the tuning host). Serial timed
/// metrics are reported in reference host seconds: wall *
/// kReferenceSeconds / calibration time.
constexpr int kCalibrationOps = 400000;
constexpr double kReferenceSeconds = 0.06;

/// A round during which the hypervisor stole more than this share of the
/// host's CPU time is disturbed: on a shared 4-vCPU guest, steal bursts
/// of 10-20% lasting minutes slowed the 4-shard fabric's wall time 2.5x
/// while serial work barely moved.
constexpr double kMaxStealShare = 0.03;
/// Clean rounds a run needs to report over them alone.
constexpr std::size_t kMinCleanRounds = 3;

/// Metrics in print order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit});
    std::printf("metric %-34s %-16.10g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  # ", note.c_str());
  }
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Counts attempted and failed jobs; a job fails when its output check
/// does, or when it throws.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void job(const std::string& what, const Outcome& o, const Outcome& ref) {
    ++attempted;
    std::string why;
    if (o.digest != ref.digest) why += " digest differs from the reference run;";
    if (o.flows_done != o.flows) why += " not every finite flow completed;";
    if (!o.ledger_ok) why += " cross-shard ledger did not close;";
    if (o.check_violations != 0) why += " invariant checker violations;";
    if (ref.past_clamps != 0) why += " events scheduled in the past;";
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: job %s failed:%s\n", what.c_str(),
                   why.c_str());
    }
  }
  void threw(const std::string& what, const std::exception& e) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "perfbench: job %s threw: %s\n", what.c_str(),
                 e.what());
  }
};

/// Totals over the jobs of one round (or of a whole run).
struct Tally {
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t pkts = 0;
  std::uint64_t flows_done = 0;

  void add(const Outcome& o, const Outcome& ref) {
    wall_s += o.wall_s;
    // The harness leaves unreported counts at zero; the reference run
    // of the same job (same digest) supplies them.
    sim_s += o.sim_s > 0.0 ? o.sim_s : ref.sim_s;
    pkts += o.pkts > 0 ? o.pkts : ref.pkts;
    flows_done += o.flows_done;
  }
};

/// Host speed reference: a heap of 4096 timestamps popped and re-pushed,
/// with one random touch of a 128 KB array per operation — the
/// heap-plus-cache-miss mix of an event kernel. Returns the timed loop's
/// seconds. It is part of the benchmark, so no change to the simulator
/// can move it. Scaling a round's wall time by the calibration around it
/// cancels most of the drift in host speed a shared machine shows over
/// minutes (on the 4-vCPU host this was tuned on, one job's wall time
/// drifted 20-30% between runs minutes apart).
double calibration_seconds() {
  std::vector<std::uint64_t> mem(std::size_t{1} << 14);
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) {
    heap.push({static_cast<double>(next() % 1000000), i});
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int i = 1; i <= kCalibrationOps; ++i) {
    const Entry e = heap.top();
    heap.pop();
    std::uint64_t& m = mem[(e.second * 2654435761u + next()) & (mem.size() - 1)];
    m += e.second;
    acc += m;
    heap.push({e.first + static_cast<double>(next() % 1000), e.second});
  }
  const double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Keeps the loop's result observable so it is not optimized away.
  if (acc == 1) std::fprintf(stderr, " ");
  return dt;
}

/// Peak resident memory of this process image in MB (VmHWM: unlike
/// getrusage's maxrss it does not inherit the peak of the process that
/// exec'd us).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Host-wide clock ticks since boot, from the "cpu" line of /proc/stat:
/// all of them, and those the hypervisor stole for other guests.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

std::size_t host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

int run(const Args& args) {
  Workload kind;
  if (!parse_workload(args.workload, kind)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::fprintf(stderr,
                 "perfbench: refusing a '%s' build; numbers are only "
                 "comparable from a Release build\n",
                 build_type.c_str());
    return 3;
  }

  // Host context, recorded with every run.
  const std::size_t nproc = host_cpus();
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  const bool oversubscribed = kind == Workload::kFabric && nproc < kFabricShards;
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %s, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"nproc\": %zu, \"loadavg\": [%.2f, %.2f, %.2f], "
      "\"fabric_shards\": %zu, \"nproc_below_shards\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, args.tiny ? "true" : "false",
      build_type.c_str(), PERFBENCH_COMPILER, nproc, load[0], load[1], load[2],
      kFabricShards, oversubscribed ? "true" : "false");
  if (oversubscribed) {
    std::printf("warning: %zu CPUs for %zu shards; fabric timings are "
                "oversubscribed and not comparable\n",
                nproc, kFabricShards);
  }

  const std::vector<Job> jobs = make_jobs(kind, args.seed, args.tiny);
  Checker check;

  // Reference pass: a plain rebuild of every job supplies the exact
  // counts the harness results omit and the digest every later run of
  // the job must repeat.
  std::vector<Outcome> ref(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    try {
      Instrument plain(false);
      ref[j] = run_rebuilt(jobs[j], plain);
      check.job(jobs[j].name + "/reference", ref[j], ref[j]);
    } catch (const std::exception& e) {
      check.threw(jobs[j].name + "/reference", e);
    }
  }

  // Serial timings below are converted to reference host seconds with
  // the calibration taken around them (see calibration_seconds). The
  // sharded fabric's traffic is timed in process CPU seconds instead:
  // its shards meet at a barrier every window, so time the hypervisor
  // steals from any one vCPU stalls all of them and its wall time swung
  // 20-30% between runs, while its CPU time, from which the kernel
  // leaves stolen time out, held within a few percent.
  const bool cpu_timed = kind == Workload::kFabric;
  double cal = calibration_seconds();
  std::vector<double> cals = {cal};

  // Set-up time, untraced runs only: for the serial workloads the
  // harness call at zero simulated duration, a few after every round so
  // the samples span the run; for the fabric the call time minus the
  // traffic run, from every measured job.
  const bool serial_setup = args.trace == 0 && kind != Workload::kFabric;
  const int setup_reps = args.tiny ? 1 : 4;
  auto sample_setup = [&](std::vector<double>& out) {
    for (int r = 0; r < setup_reps; ++r) {
      double s = 0.0;
      for (const Job& job : jobs) s += run_setup(job);
      out.push_back(s);
    }
  };

  // Measured closed loop: rounds over the job grid until the time is
  // up. Traced runs interleave each untraced job with its traced twin.
  // Rounds during which the hypervisor stole CPU time are disturbed and
  // left out of the medians when enough clean rounds remain.
  struct Round {
    double raw_pkts_per_s = 0.0;  // per unscaled wall second
    double steal_share = 0.0;
    std::vector<double> setup;
  };
  // Each job's timed runs, in reference host or CPU seconds, with
  // whether their round was clean, and the work one run of it does.
  struct Timed {
    double seconds = 0.0;
    bool clean = true;
  };
  std::vector<std::vector<Timed>> job_times(jobs.size());
  std::vector<Tally> job_work(jobs.size());
  std::vector<Round> rounds;
  std::size_t clean = 0;
  Tally untraced_all, traced_all;
  Outcome counts;  // summed reference counts of the measured jobs
  std::vector<double> busy_frac, barrier_wait, imbalance;
  std::uint64_t mailbox_peak = 0, exported = 0, parsim_rounds = 0;
  double parsim_busy_s = 0.0;
  long job_index = 0;
  const auto start = std::chrono::steady_clock::now();
  // One round at least, however long it takes: a round of a run slowed
  // by CPU steal can take several times its usual length.
  auto more_rounds = [&] {
    return rounds.empty() ||
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() < args.seconds;
  };
  while (more_rounds()) {
    const double cal_before = cal;
    const CpuTicks ticks_before = cpu_ticks();
    Tally t;
    Round round;
    std::vector<double> raw(jobs.size(), -1.0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = jobs[j];
      try {
        Outcome o = run_harness(job);
        if (job_index++ == args.corrupt_job) o.digest ^= 1;
        check.job(job.name, o, ref[j]);
        t.add(o, ref[j]);
        raw[j] = cpu_timed ? o.cpu_s : o.wall_s;
        job_work[j] = Tally();
        job_work[j].add(o, ref[j]);
        if (o.setup_s > 0.0) round.setup.push_back(o.setup_s);
        const Outcome& r = ref[j];
        counts.events += r.events;
        counts.pkts += r.pkts;
        counts.flows += r.flows;
        counts.timers_cancelled += r.timers_cancelled;
        counts.past_clamps += r.past_clamps;
        counts.switches += r.switches;
        counts.segments_sent += r.segments_sent;
        counts.retransmits += r.retransmits;
        counts.timeouts += r.timeouts;
        counts.sim_s += r.sim_s;
        const auto& tel = o.telemetry;
        if (tel.shards > 1) {
          double max_busy = 0.0;
          for (const auto& s : tel.shard) {
            max_busy = std::max(max_busy, s.busy_seconds);
            mailbox_peak = std::max(mailbox_peak, s.mailbox_peak);
            exported += s.exported;
          }
          const double busy = tel.busy_seconds_total();
          const double shards = static_cast<double>(tel.shards);
          busy_frac.push_back(ratio(busy, shards * tel.wall_seconds));
          barrier_wait.push_back(shards * tel.wall_seconds - busy);
          imbalance.push_back(ratio(max_busy, busy / shards));
          parsim_rounds += tel.rounds;
        }
      } catch (const std::exception& e) {
        check.threw(job.name, e);
      }
      if (args.trace == 1) {
        try {
          set_trace_job(static_cast<std::uint32_t>(job_index));
          Instrument ins(true);
          const Outcome o = run_rebuilt(job, ins);
          check.job(job.name + "/traced", o, ref[j]);
          traced_all.add(o, ref[j]);
          parsim_busy_s += o.telemetry.busy_seconds_total();
        } catch (const std::exception& e) {
          check.threw(job.name + "/traced", e);
        }
      }
    }
    if (serial_setup) sample_setup(round.setup);
    const CpuTicks ticks_after = cpu_ticks();
    round.steal_share =
        ratio(static_cast<double>(ticks_after.steal - ticks_before.steal),
              static_cast<double>(ticks_after.total - ticks_before.total));
    const bool clean_round = round.steal_share <= kMaxStealShare;
    if (clean_round) ++clean;
    cal = calibration_seconds();
    cals.push_back(cal);
    const double scale = kReferenceSeconds / (0.5 * (cal_before + cal));
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (raw[j] < 0.0) continue;
      job_times[j].push_back({cpu_timed ? raw[j] : raw[j] * scale, clean_round});
    }
    untraced_all.wall_s += t.wall_s;
    round.raw_pkts_per_s = ratio(static_cast<double>(t.pkts), t.wall_s);
    for (double& s : round.setup) s *= scale;
    rounds.push_back(std::move(round));
  }

  // Report over the clean rounds when there are enough of them.
  const bool use_clean =
      clean >= std::min<std::size_t>(kMinCleanRounds, rounds.size());
  std::vector<double> raw_pkts_per_s, setup_samples, steal;
  for (const Round& r : rounds) {
    steal.push_back(r.steal_share);
    if (use_clean && r.steal_share > kMaxStealShare) continue;
    raw_pkts_per_s.push_back(r.raw_pkts_per_s);
    setup_samples.insert(setup_samples.end(), r.setup.begin(), r.setup.end());
  }
  // Throughputs: the grid's work over the sum of each job's median time.
  // A per-job median rejects a disturbance that hits only part of a round.
  Tally grid;
  double grid_s = 0.0;
  std::size_t runs_per_job = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<double> times;
    for (const Timed& x : job_times[j]) {
      if (!use_clean || x.clean) times.push_back(x.seconds);
    }
    if (times.empty()) continue;
    runs_per_job = std::max(runs_per_job, times.size());
    grid_s += median(times);
    grid.sim_s += job_work[j].sim_s;
    grid.pkts += job_work[j].pkts;
    grid.flows_done += job_work[j].flows_done;
  }

  const double failed_frac = ratio(static_cast<double>(check.failed),
                                   static_cast<double>(check.attempted));
  std::printf("rounds %zu clean %zu (steal above %.0f%% of host CPU marks a "
              "round disturbed; median steal %.3g%%)%s\n",
              rounds.size(), clean, kMaxStealShare * 100.0,
              median(steal) * 100.0,
              use_clean ? "" : "; too few clean rounds, reporting all");
  std::printf("jobs_attempted %llu jobs_failed %llu failed_frac %.6g\n",
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed), failed_frac);
  std::printf("calibration median %.6f s (reference %.3f s); pkts_per_s "
              "%.6g per unscaled wall second\n",
              median(cals), kReferenceSeconds, median(raw_pkts_per_s));

  Report rep;
  if (args.trace == 0) {
    const std::string ref_s =
        std::string(cpu_timed ? "per process CPU second"
                              : "per reference host second") +
        ", per-job median of " + std::to_string(runs_per_job) + " runs";
    const double pkts = static_cast<double>(grid.pkts);
    rep.add("pkts_per_s", ratio(pkts, grid_s), "1/s", ref_s);
    rep.add("sim_s_per_wall_s", ratio(grid.sim_s, grid_s), "s/s", ref_s);
    rep.add("flows_per_s", ratio(static_cast<double>(grid.flows_done), grid_s),
            "1/s",
            kind == Workload::kDumbbell
                ? "long-lived flows, counted once their window has run"
                : "completed finite flows");
    rep.add("setup_s", median(setup_samples), "s",
            "reference host seconds, median of " +
                std::to_string(setup_samples.size()));
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.print_json(check.failed == 0, check.attempted, check.failed);
    return 0;
  }

  // Per-layer metrics. Counts are exact and repeat run to run.
  const double pkts = static_cast<double>(counts.pkts);
  const sim::Counters& q = counts.switches;
  const double offered = static_cast<double>(q.offered);
  rep.add("sim.events_per_pkt", ratio(static_cast<double>(counts.events), pkts),
          "events/pkt");
  rep.add("sim.timers_cancelled_per_pkt",
          ratio(static_cast<double>(counts.timers_cancelled), pkts),
          "timers/pkt");
  rep.add("sim.past_schedule_clamps", static_cast<double>(counts.past_clamps),
          "count");
  rep.add("queue.bypass_frac", ratio(static_cast<double>(q.bypassed), offered),
          "ratio", "switch egress, of offered");
  rep.add("queue.mark_frac", ratio(static_cast<double>(q.marked), offered),
          "ratio");
  rep.add("queue.drop_frac", ratio(static_cast<double>(q.dropped), offered),
          "ratio");
  rep.add("tcp.retransmit_frac",
          ratio(static_cast<double>(counts.retransmits),
                static_cast<double>(counts.segments_sent)),
          "ratio");
  rep.add("tcp.timeouts_per_flow",
          ratio(static_cast<double>(counts.timeouts),
                static_cast<double>(counts.flows)),
          "1/flow");
  const bool sharded = kind == Workload::kFabric;
  const std::string no_parsim = sharded ? "" : "not exercised: serial run";
  rep.add("parsim.rounds_per_sim_ms",
          ratio(static_cast<double>(parsim_rounds), counts.sim_s * 1e3),
          "rounds/ms", no_parsim);
  rep.add("parsim.busy_frac", median(busy_frac), "ratio", no_parsim);
  rep.add("parsim.barrier_wait_s", median(barrier_wait), "s",
          sharded ? "per job, shards x wall - busy" : no_parsim);
  rep.add("parsim.imbalance", median(imbalance), "ratio", no_parsim);
  rep.add("parsim.exports_per_pkt",
          sharded ? ratio(static_cast<double>(exported), pkts) : 0.0,
          "exports/pkt", no_parsim);
  rep.add("parsim.mailbox_peak", static_cast<double>(mailbox_peak), "entries",
          no_parsim);

  // Self times from the traced jobs.
  const TraceTotals tt = trace_totals();
  auto self = [&](Layer l) {
    return static_cast<double>(tt.layers[static_cast<std::size_t>(l)].self_ns);
  };
  auto per_call = [&](Layer l) {
    return ratio(self(l), static_cast<double>(
                              tt.layers[static_cast<std::size_t>(l)].calls));
  };
  const double traced_pkts = static_cast<double>(traced_all.pkts);
  // Time inside the event loop that no wrapped boundary covers: slices
  // for serial runs, shard busy time for sharded ones. It includes Port
  // serialization and TCP timer handlers, which have no public virtual
  // boundary to wrap.
  const double kernel_self_ns =
      sharded ? parsim_busy_s * 1e9 - static_cast<double>(tt.outer_ns)
              : self(Layer::kSlice);
  rep.add("sim.kernel_self_ns_per_pkt", ratio(kernel_self_ns, traced_pkts),
          "ns/pkt", "includes Port serialization and TCP timers");
  rep.add("sim.pending_events_mean",
          ratio(tt.pending_sum, static_cast<double>(tt.pending_samples)),
          "events",
          sharded ? "per shard, sampled every 64th node arrival"
                  : "sampled between 1 ms slices");
  rep.add("sim.node_receive_self_ns_per_pkt",
          ratio(self(Layer::kNodeReceive), traced_pkts), "ns/pkt");
  rep.add("queue.enqueue_self_ns", per_call(Layer::kEnqueue), "ns/call");
  rep.add("queue.dequeue_self_ns", per_call(Layer::kDequeue), "ns/call");
  rep.add("queue.bypass_self_ns", per_call(Layer::kBypass), "ns/call");
  rep.add("tcp.deliver_self_ns_per_segment", per_call(Layer::kDeliver),
          "ns/segment");
  rep.add("stats.monitor_self_ns_per_change", per_call(Layer::kMonitor),
          "ns/change",
          kind == Workload::kDumbbell ? "" : "not exercised: no queue monitor");
  rep.add("trace.overhead_frac",
          ratio(traced_all.wall_s, untraced_all.wall_s) - 1.0, "ratio",
          "traced wall / untraced wall - 1");
  rep.add("failed_frac", failed_frac, "ratio");

  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) + ".spans.csv";
  const std::size_t written = write_spans(path);
  std::printf("trace %llu spans, first %zu written to %s\n",
              static_cast<unsigned long long>(tt.spans), written,
              path.c_str());
  rep.print_json(check.failed == 0, check.attempted, check.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-job K] [--trace-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
