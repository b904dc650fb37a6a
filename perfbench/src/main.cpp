// perfbench: runs one shrinktm workload for a timed window and prints its
// metrics and the verdict of its correctness checks as one JSON line.
//
//   perfbench --workload hot-ledger|cold-tree|durable-ledger --seed N
//             --seconds S [--scheduler shrink|base] [--sync async|group]
//             [--workdir DIR] [--trace-out FILE]
//   perfbench --self-test [--workdir DIR]
//
// perfbench/run.py builds this, runs it (and perfbench_traced for the
// per-layer times) and prints the benchmark's result line.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int client_count(int workload_default) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return cores > 0 && workload_default > cores ? cores : workload_default;
}

namespace {
double per(double num, double den) { return den == 0 ? 0.0 : num / den; }
double per(std::uint64_t num, std::uint64_t den) {
  return per(static_cast<double>(num), static_cast<double>(den));
}
}  // namespace

void report_common(Result& r, const Options& opts,
                   const std::vector<std::unique_ptr<Client>>& clients,
                   double seconds, const api::RuntimeStats& window,
                   const api::RuntimeStats& at_go, double setup_s,
                   double rss_mb, std::uint64_t tsc0, std::uint64_t tsc1) {
  // Per-slot histograms over all clients; the last slot holds the ops that
  // ended after the last full second.
  std::vector<Histogram> slots(clients.front()->latency.size());
  Histogram lat;
  std::uint64_t ops = 0, bodies = 0;
  ClientTrace::Totals tt;
  for (const auto& c : clients) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      slots[s].merge(c->latency[s]);
      lat.merge(c->latency[s]);
    }
    ops += c->ops;
    bodies += c->body_entries;
    r.failed += c->failed;
    const ClientTrace::Totals& t = c->trace.totals();
    tt.ops += t.ops;
    tt.start += t.start;
    tt.abort += t.abort;
    tt.commit += t.commit;
    tt.body += t.body;
    tt.read += t.read;
    tt.write += t.write;
    tt.reads += t.reads;
    tt.writes += t.writes;
  }
  r.attempted += ops;
  r.expect_equal("body entries vs attempts", bodies, window.attempts);
  r.expect_equal("completed ops vs commits", ops, window.commits);
  if (!window.conserved()) r.fail("runtime stats not conserved");

  // Medians over the full one-second slots (the whole window when it is
  // shorter than a second).
  const std::size_t full = slots.size() - 1;
  const auto slot_median = [&](auto&& of_slot, double whole) {
    if (full == 0) return whole;
    std::vector<double> v;
    for (std::size_t s = 0; s < full; ++s) v.push_back(of_slot(slots[s]));
    std::sort(v.begin(), v.end());
    return full % 2 == 1 ? v[full / 2] : (v[full / 2 - 1] + v[full / 2]) / 2;
  };
  r.metric("setup_s", setup_s);
  r.metric("ops_per_s",
           slot_median([](const Histogram& h) { return static_cast<double>(h.total()); },
                       static_cast<double>(ops) / seconds));
  r.metric("op_p50_us",
           slot_median([](const Histogram& h) { return h.quantile(0.50); },
                       lat.quantile(0.50)) / 1e3);
  r.metric("op_p99_us",
           slot_median([](const Histogram& h) { return h.quantile(0.99); },
                       lat.quantile(0.99)) / 1e3);
  r.metric("op_p999_us", lat.quantile(0.999) / 1e3);
  r.metric("op_samples", static_cast<double>(lat.total()));
  r.metric("peak_rss_mb", rss_mb);

  r.metric("api.attempts_per_op", per(bodies, ops));
  r.metric("stm.reads_per_op", per(window.reads, window.commits));
  r.metric("stm.writes_per_op", per(window.writes, window.commits));
  r.metric("stm.aborts_per_commit", per(window.aborts, window.commits));
  using shrinktm::stm::AbortReason;
  const auto by = [&](AbortReason why) {
    return per(window.aborts_by_reason[static_cast<std::size_t>(why)],
               window.commits);
  };
  r.metric("stm.aborts_read_conflict_per_commit", by(AbortReason::kReadConflict));
  r.metric("stm.aborts_write_conflict_per_commit", by(AbortReason::kWriteConflict));
  r.metric("stm.aborts_validation_per_commit", by(AbortReason::kValidation));
  r.metric("stm.aborts_killed_per_commit", by(AbortReason::kKilled));
  r.metric("stm.extensions_per_commit", per(window.extensions, window.commits));
  r.metric("core.serialized_per_1k_attempts",
           1e3 * per(window.serialized - at_go.serialized, window.attempts));
  r.metric("core.sched_waits_per_1k_attempts",
           1e3 * per(window.sched_waits - at_go.sched_waits, window.attempts));

  if constexpr (kTraced) {
    const double ns_per_tick = seconds * 1e9 / static_cast<double>(tsc1 - tsc0);
    const auto ns = [&](std::uint64_t t) { return static_cast<double>(t) * ns_per_tick; };
    r.expect_equal("traced ops vs completed ops", tt.ops, ops);
    r.metric("api.start_ns", per(ns(tt.start), static_cast<double>(tt.ops)));
    r.metric("api.abort_ns", per(ns(tt.abort), static_cast<double>(tt.ops)));
    r.metric("api.commit_ns", per(ns(tt.commit), static_cast<double>(tt.ops)));
    r.metric("stm.read_ns", per(ns(tt.read), static_cast<double>(tt.reads)));
    r.metric("stm.write_ns", per(ns(tt.write), static_cast<double>(tt.writes)));
    r.metric("txstruct.self_ns",
             per(ns(tt.body - tt.read - tt.write), static_cast<double>(tt.ops)));
    if (!opts.trace_out.empty()) {
      std::vector<const ClientTrace*> ts;
      for (const auto& c : clients) ts.push_back(&c->trace);
      if (!write_chrome_trace(opts.trace_out, ts, tsc0, ns_per_tick))
        r.fail("could not write the trace to " + opts.trace_out);
    }
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_result(const Options& opts, const Result& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << json_escape(opts.workload) << "\",\"scheduler\":\""
     << json_escape(opts.scheduler) << "\",\"traced\":" << (kTraced ? "true" : "false")
     << ",\"correct\":" << (r.correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"lost_writes\":" << r.lost_writes << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(r.problems[i]) << '"';
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? "," : "") << '"' << r.metrics[i].first << "\":" << r.metrics[i].second;
  os << "}}";
  std::cout << os.str() << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload hot-ledger|cold-tree|durable-ledger"
               " --seed N --seconds S [--scheduler shrink|base]"
               " [--sync async|group]"
               " [--workdir DIR] [--trace-out FILE]\n"
               "       perfbench --self-test [--workdir DIR]\n";
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::uint64_t process_start = now_ns();
  Options opts;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") opts.workload = value();
      else if (a == "--seed") opts.seed = std::stoull(value());
      else if (a == "--seconds") opts.seconds = std::stod(value());
      else if (a == "--scheduler") opts.scheduler = value();
      else if (a == "--sync") opts.sync = value();
      else if (a == "--workdir") opts.workdir = value();
      else if (a == "--trace-out") opts.trace_out = value();
      else if (a == "--self-test") self = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (self) return self_test(opts);
  if (!(opts.seconds > 0 && opts.seconds <= 3600)) usage("--seconds must be in (0, 3600]");
  try {
    Result r;
    if (opts.workload == "hot-ledger") r = hot_ledger(opts, process_start);
    else if (opts.workload == "cold-tree") r = cold_tree(opts, process_start);
    else if (opts.workload == "durable-ledger") r = durable_ledger(opts, process_start);
    else usage("unknown workload '" + opts.workload + "'");
    for (const std::string& p : r.problems) std::cerr << "CHECK FAILED: " << p << "\n";
    print_result(opts, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
