#include "trace.hpp"

#include <cstdio>

#include "durable/backend.hpp"
#include "stm/swiss.hpp"
#include "stm/tiny.hpp"

namespace perfbench {

namespace {
thread_local ClientTrace* tl_trace = nullptr;

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kOp: return "op";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kBody: return "body";
    case SpanKind::kRead: return "read";
    case SpanKind::kWrite: return "write";
    case SpanKind::kCommit: return "commit";
  }
  return "?";
}
}  // namespace

void set_thread_trace(ClientTrace* t) { tl_trace = t; }

bool write_chrome_trace(const std::string& path,
                        const std::vector<const ClientTrace*>& clients,
                        std::uint64_t origin_ticks, double ns_per_tick) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (const Span& s : clients[c]->spans()) {
      const double ts =
          static_cast<double>(s.t0 - origin_ticks) * ns_per_tick / 1e3;
      const double dur = static_cast<double>(s.t1 - s.t0) * ns_per_tick / 1e3;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   first ? "" : ",\n", span_name(s.kind), c, ts, dur,
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

/// Times one backend call made from inside a body; records on unwind too
/// (a load that detects a conflict throws).
class CallSpan {
 public:
  CallSpan(ClientTrace* t, SpanKind k)
      : t_(t != nullptr && t->in_body() ? t : nullptr), k_(k),
        t0_(t_ != nullptr ? ticks() : 0) {}
  ~CallSpan() {
    if (t_ != nullptr) t_->call(k_, t0_, ticks());
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  ClientTrace* t_;
  SpanKind k_;
  std::uint64_t t0_;
};

}  // namespace
}  // namespace perfbench

#if defined(PERFBENCH_TRACED)
// Interposers for the backends' out-of-line load()/store() (see the
// --wrap list in CMakeLists.txt).  A member function's `this` is its first
// argument in the Itanium C++ ABI, so each is declared as a free function
// over the descriptor pointer.
using shrinktm::stm::Word;

#define PERFBENCH_WRAP_LOAD(SYM, TX)                                     \
  extern "C" Word __real_##SYM(TX* self, const Word* addr);              \
  extern "C" Word __wrap_##SYM(TX* self, const Word* addr) {             \
    perfbench::CallSpan s(perfbench::tl_trace, perfbench::SpanKind::kRead); \
    return __real_##SYM(self, addr);                                     \
  }
#define PERFBENCH_WRAP_STORE(SYM, TX)                                    \
  extern "C" void __real_##SYM(TX* self, Word* addr, Word value);        \
  extern "C" void __wrap_##SYM(TX* self, Word* addr, Word value) {       \
    perfbench::CallSpan s(perfbench::tl_trace, perfbench::SpanKind::kWrite); \
    __real_##SYM(self, addr, value);                                     \
  }

PERFBENCH_WRAP_LOAD(_ZN8shrinktm3stm6TinyTx4loadEPKm, shrinktm::stm::TinyTx)
PERFBENCH_WRAP_STORE(_ZN8shrinktm3stm6TinyTx5storeEPmm, shrinktm::stm::TinyTx)
PERFBENCH_WRAP_LOAD(_ZN8shrinktm3stm7SwissTx4loadEPKm, shrinktm::stm::SwissTx)
PERFBENCH_WRAP_STORE(_ZN8shrinktm3stm7SwissTx5storeEPmm, shrinktm::stm::SwissTx)
PERFBENCH_WRAP_LOAD(_ZN8shrinktm7durable9DurableTx4loadEPKm,
                    shrinktm::durable::DurableTx)
PERFBENCH_WRAP_STORE(_ZN8shrinktm7durable9DurableTx5storeEPmm,
                     shrinktm::durable::DurableTx)
#endif
