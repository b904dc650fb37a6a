// The load generator shared by every workload: seeded inputs, closed-loop
// client threads with a warm-up and a timed window, per-client counters and
// latency histograms, and the result every workload returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/shrinktm.hpp"
#include "checks.hpp"
#include "hist.hpp"
#include "trace.hpp"

namespace perfbench {

namespace api = shrinktm::api;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string scheduler = "shrink";
  /// durable-ledger's sync mode: async (the benchmark's choice, see
  /// README.md) or group (the library default: ack after fsync).
  std::string sync = "async";
  std::string workdir = ".";  ///< durable directories go under it
  std::string trace_out;      ///< Chrome trace path (traced binary only)
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost_writes = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void metric(std::string name, double v) {
    metrics.emplace_back(std::move(name), v);
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  /// An independent total that must agree with the program's counter.
  void expect_equal(const char* what, std::uint64_t ours,
                    std::uint64_t program) {
    if (ours != program)
      fail(std::string(what) + ": benchmark counted " + std::to_string(ours) +
           ", program counted " + std::to_string(program));
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's only source of input randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Stream `stream` of run seed `seed` (clients, set-up, ...).
inline Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return Rng(mix.next());
}

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.unit();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

/// The timed window is cut into one-second slots, plus one for ops that end
/// after the last full second.  Throughput and latency percentiles are the
/// medians of the full slots, so a burst of outside load moves them less.
inline std::size_t slot_count(const Options& opts) {
  return static_cast<std::size_t>(opts.seconds) + 1;
}

/// Spans each client keeps in memory for the written-out trace.
inline constexpr std::size_t kSpanCapacity = kTraced ? (std::size_t{1} << 13) : 0;

/// One closed-loop client's own counters, histograms and trace.
/// Over-aligned so no two clients share a cache line; tallies and replays
/// are LineVectors (checks.hpp) for the same reason.
struct alignas(64) Client {
  explicit Client(const Options& opts)
      : latency(slot_count(opts)), trace(kSpanCapacity) {}

  std::uint64_t ops = 0;           ///< ops completed in the timed window
  std::uint64_t body_entries = 0;  ///< body entries in the timed window
  std::uint64_t failed = 0;        ///< ops whose result contradicts the replay
  std::uint64_t go_ns = 0;         ///< when the timed window opened
  std::vector<Histogram> latency;  ///< op latency per slot, ns
  ClientTrace trace;
};

/// Run `body` as one op: an atomically() call, timed end to end.
template <typename Handle, typename Body>
void run_op(Handle& th, Client& c, bool timed, Body&& body) {
  const std::uint64_t t0 = now_ns();
  if constexpr (kTraced) c.trace.op_begin(timed);
  atomically(th, [&](api::Tx& tx) {
    if (timed) ++c.body_entries;
    if constexpr (kTraced) {
      BodySpan span(c.trace);
      body(tx);
    } else {
      body(tx);
    }
  });
  if constexpr (kTraced) c.trace.op_end();
  if (timed) {
    ++c.ops;
    const std::uint64_t t1 = now_ns();
    const std::size_t slot = std::min<std::size_t>(
        (t1 - c.go_ns) / 1'000'000'000, c.latency.size() - 1);
    c.latency[slot].add(t1 - t0);
  }
}

/// Warm-up, a quiescent switch point, the timed window, stop.
class Phases {
 public:
  enum Phase : int { kWarm, kPause, kRun, kStop };

  Phase phase() const { return static_cast<Phase>(phase_.load(std::memory_order_acquire)); }
  /// When the timed window opened (valid once phase() is kRun).
  std::uint64_t go_ns() const { return go_ns_.load(std::memory_order_acquire); }

  /// Client side: call once when phase() leaves kWarm; returns when the
  /// timed window opens (or the run stops).
  void arrive() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (phase() == kPause) std::this_thread::yield();
  }
  /// A client that died counts as arrived, so the switch point is reached.
  void count_out() { arrived_.fetch_add(1, std::memory_order_acq_rel); }

  /// Main-thread side.
  void pause_and_wait(int clients) {
    phase_.store(kPause, std::memory_order_release);
    while (arrived_.load(std::memory_order_acquire) < clients)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  void set(Phase p) { phase_.store(p, std::memory_order_release); }
  void open(std::uint64_t now) {
    go_ns_.store(now, std::memory_order_release);
    set(kRun);
  }

 private:
  std::atomic<int> phase_{kWarm};
  std::atomic<std::uint64_t> go_ns_{0};
  std::atomic<int> arrived_{0};
};

/// Every run warms up this long before its timed window.
inline constexpr auto kWarmup = std::chrono::seconds(2);

/// Spawns one thread per `client(c, phases)` loop, runs warm-up, calls
/// `at_go()` while every client is parked, opens the timed window, and
/// stops it after `seconds`.  Returns the window's length in seconds, from
/// opening to the last client's exit.  An exception a client dies of is
/// rethrown here once every thread has joined.
template <typename ClientFn, typename AtGo>
double run_window(int threads, const Options& opts, ClientFn&& client,
                  AtGo&& at_go) {
  Phases phases;
  std::mutex error_mutex;
  std::exception_ptr error;  // the first exception a client died of
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(threads));
  for (int c = 0; c < threads; ++c)
    ts.emplace_back([&, c] {
      try {
        client(c, phases);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> g(error_mutex);
          if (!error) error = std::current_exception();
        }
        phases.count_out();
      }
    });
  std::this_thread::sleep_for(kWarmup);
  phases.pause_and_wait(threads);
  at_go();
  const std::uint64_t t0 = now_ns();
  phases.open(t0);
  std::this_thread::sleep_for(std::chrono::duration<double>(opts.seconds));
  phases.set(Phases::kStop);
  for (auto& t : ts) t.join();
  if (error) std::rethrow_exception(error);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// The loop every closed-loop client runs: `op(timed)` until stopped.
template <typename OpFn>
void client_loop(Phases& phases, Client* client, OpFn&& op) {
  while (phases.phase() == Phases::kWarm) op(false);
  phases.arrive();
  if (client != nullptr) client->go_ns = phases.go_ns();
  while (phases.phase() == Phases::kRun) op(true);
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// The workload's client count, at most nproc.
int client_count(int workload_default);

/// Op-latency, throughput and counter metrics common to every workload.
/// `window` is the timed window's RuntimeStats (counters reset at its
/// start), `at_go` the snapshot taken right after that reset.
void report_common(Result& r, const Options& opts,
                   const std::vector<std::unique_ptr<Client>>& clients,
                   double seconds, const api::RuntimeStats& window,
                   const api::RuntimeStats& at_go, double setup_s,
                   double rss_mb, std::uint64_t tsc0, std::uint64_t tsc1);

Result hot_ledger(const Options& opts, std::uint64_t process_start_ns);
Result durable_ledger(const Options& opts, std::uint64_t process_start_ns);
Result cold_tree(const Options& opts, std::uint64_t process_start_ns);

int self_test(const Options& opts);

}  // namespace perfbench
