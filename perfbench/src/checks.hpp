// Correctness checks of a run, each against a computation made apart from
// the program: the clients' own tallies and replays.  They take plain
// snapshots so the self-test (selftest.cpp) can feed them wrong states.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace perfbench {

/// One ledger account as read back from the program.
struct Account {
  std::int64_t balance = 0;
  std::uint64_t writes = 0;  ///< committed writes to this account
  bool operator==(const Account&) const = default;
};

/// Allocates whole, exclusively owned cache lines, so a client's tally or
/// replay never shares a line with another client's data.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kLine = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, std::align_val_t{kLine}); }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const { return true; }
};

template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

/// What the clients tallied per account over every op that committed.
struct LedgerTally {
  explicit LedgerTally(std::size_t accounts)
      : delta(accounts, 0), writes(accounts, 0) {}
  void add(std::size_t account, std::int64_t d) {
    delta[account] += d;
    ++writes[account];
  }
  void merge(const LedgerTally& o);

  LineVector<std::int64_t> delta;
  LineVector<std::uint64_t> writes;
};

struct LedgerVerdict {
  /// Writes the final counts fall short of the tally by: updates the STM
  /// lost although their transactions committed.
  std::uint64_t lost_writes = 0;
  /// Accounts with no lost write whose balance differs from the replay of
  /// their tallied deltas, or with more writes than were tallied.
  std::uint64_t mismatched = 0;
  /// The total equals the funded total.  Checked only when no write was
  /// lost: a lost write breaks conservation by its delta.
  bool conserved = true;

  bool ok() const { return mismatched == 0 && (lost_writes > 0 || conserved); }
};

LedgerVerdict check_ledger(const std::vector<Account>& state,
                           const LedgerTally& tally,
                           std::int64_t initial_balance);

/// Accounts on which two states differ.
std::size_t count_differences(const std::vector<Account>& a,
                              const std::vector<Account>& b);

/// Sum of balances (the follower audit's conserved total).
std::int64_t total_balance(const std::vector<Account>& state);

struct TreeVerdict {
  bool ordered = true;      ///< in-order walk strictly increasing
  bool balanced = true;     ///< red-black invariants hold
  std::size_t missing = 0;  ///< keys the replays hold that the tree lacks
  std::size_t unexpected = 0;   ///< keys in the tree no replay holds
  std::size_t wrong_value = 0;  ///< keys whose value differs from the replay

  bool ok() const {
    return ordered && balanced && missing == 0 && unexpected == 0 &&
           wrong_value == 0;
  }
};

/// `inorder` is the tree's in-order walk, `black_height` its
/// unsafe_check_invariants() result, `expected[k]` the replayed value of key
/// slot k (0 = absent).
TreeVerdict check_tree(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& inorder,
    int black_height, const std::vector<std::uint64_t>& expected);

}  // namespace perfbench
