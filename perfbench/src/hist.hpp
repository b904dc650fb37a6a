// Fixed-size latency histogram of the benchmark's own clients.
//
// Log-linear buckets: values below 2^kSubBits ns are exact, every power of
// two above is cut into 2^kSubBits equal sub-buckets (< 0.8% wide).  The
// footprint is fixed at construction, so the load generator's memory does
// not grow with the run and peak_rss_mb measures the program.  Quantiles
// interpolate by rank inside the bucket that holds them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr unsigned kMaxExp = 40;  // ~18 minutes in ns
  static constexpr std::size_t kBuckets =
      std::size_t{kMaxExp - kSubBits + 1} << kSubBits;

  void add(std::uint64_t v) {
    ++counts_[index_of(std::min(v, kMaxValue))];
    ++total_;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t total() const { return total_; }

  /// Value below which a share q of the samples lie; 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= target) {
        const double frac = (target - seen) / c;
        return static_cast<double>(lower_bound(i)) +
               frac * static_cast<double>(width(i));
      }
      seen += c;
    }
    return static_cast<double>(kMaxValue);
  }

 private:
  static constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kMaxExp) - 1;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return (std::size_t{shift + 1} << kSubBits) +
           static_cast<std::size_t>((v >> shift) - kSub);
  }
  static std::uint64_t lower_bound(std::size_t i) {
    if (i < kSub) return i;
    const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
    return ((i & (kSub - 1)) + kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kSub) return 1;
    return std::uint64_t{1} << ((i >> kSubBits) - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace perfbench
