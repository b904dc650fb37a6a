// Traced mode: spans recorded by the benchmark's own code around each call
// into the program.
//
// One op is one atomically() call.  Its spans share the op id:
//   op       atomically() call to return
//   attempt  previous boundary (op start, or the last body exit) to this
//            body's exit -- the scheduler's start/serialisation wait or the
//            abort-and-restart gap, plus the body
//   body     body entry to body return or unwind
//   read     one backend load() made by the benchmark's code (tx.read on a
//   write    TVar/Slot, or inside txs::TxRBTree); one backend store()
//   commit   the last body return to the atomically() return
// Reads and writes are caught by linking the traced binary with
// --wrap=<backend load/store> (CMakeLists.txt); the wrappers live in
// trace.cpp.  Totals cover every op of the timed window; the first
// `capacity` spans of each client stay in memory and are written out as a
// Chrome trace at the end.  Times are TSC ticks, converted to ns with a
// rate calibrated over the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace perfbench {

#if defined(PERFBENCH_TRACED)
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/// Cheap monotonic timestamp for spans (TSC where available).
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

enum class SpanKind : std::uint8_t { kOp, kAttempt, kBody, kRead, kWrite, kCommit };

struct Span {
  std::uint64_t op;
  std::uint64_t t0;
  std::uint64_t t1;
  SpanKind kind;
};

class alignas(64) ClientTrace {
 public:
  /// Sums over the timed window, in ticks where they are times.
  struct Totals {
    std::uint64_t ops = 0;
    std::uint64_t start = 0;   ///< op start to first body entry
    std::uint64_t abort = 0;   ///< body exit to the next body entry
    std::uint64_t commit = 0;  ///< last body exit to op end
    std::uint64_t body = 0;    ///< inside bodies, reads and writes included
    std::uint64_t read = 0;
    std::uint64_t write = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };

  explicit ClientTrace(std::size_t capacity) { spans_.reserve(capacity); }

  void op_begin(bool timed) {
    active_ = timed;
    op_t0_ = ticks();
    last_exit_ = 0;
    ++op_id_;
  }
  void body_enter() {
    const std::uint64_t t = ticks();
    if (active_) {
      if (last_exit_ == 0) {
        totals_.start += t - op_t0_;
      } else {
        totals_.abort += t - last_exit_;
      }
    }
    attempt_t0_ = last_exit_ == 0 ? op_t0_ : last_exit_;
    body_t0_ = t;
    in_body_ = true;
  }
  void body_exit() {
    const std::uint64_t t = ticks();
    in_body_ = false;
    last_exit_ = t;
    if (!active_) return;
    totals_.body += t - body_t0_;
    keep(SpanKind::kBody, body_t0_, t);
    keep(SpanKind::kAttempt, attempt_t0_, t);
  }
  void op_end() {
    const std::uint64_t t = ticks();
    if (!active_) return;
    ++totals_.ops;
    totals_.commit += t - last_exit_;
    keep(SpanKind::kCommit, last_exit_, t);
    keep(SpanKind::kOp, op_t0_, t);
  }
  /// A backend load or store made from inside a body.
  void call(SpanKind k, std::uint64_t t0, std::uint64_t t1) {
    if (!active_) return;
    if (k == SpanKind::kRead) {
      ++totals_.reads;
      totals_.read += t1 - t0;
    } else {
      ++totals_.writes;
      totals_.write += t1 - t0;
    }
    keep(k, t0, t1);
  }

  bool in_body() const { return in_body_; }
  const Totals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void keep(SpanKind k, std::uint64_t t0, std::uint64_t t1) {
    if (spans_.size() < spans_.capacity()) spans_.push_back({op_id_, t0, t1, k});
  }

  Totals totals_;
  std::vector<Span> spans_;
  std::uint64_t op_id_ = 0;
  std::uint64_t op_t0_ = 0;
  std::uint64_t attempt_t0_ = 0;
  std::uint64_t body_t0_ = 0;
  std::uint64_t last_exit_ = 0;
  bool active_ = false;
  bool in_body_ = false;
};

/// RAII body span: exit is recorded on return and on unwind alike.
class BodySpan {
 public:
  explicit BodySpan(ClientTrace& t) : t_(t) { t_.body_enter(); }
  ~BodySpan() { t_.body_exit(); }
  BodySpan(const BodySpan&) = delete;
  BodySpan& operator=(const BodySpan&) = delete;

 private:
  ClientTrace& t_;
};

/// Route the calling thread's backend loads/stores to `t` (null: untimed).
void set_thread_trace(ClientTrace* t);

/// Write every client's kept spans as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const ClientTrace*>& clients,
                        std::uint64_t origin_ticks, double ns_per_tick);

}  // namespace perfbench
