// Ledger accounts in a durable region and the transfer every ledger
// workload runs; shared by ledger.cpp and the self-test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/shrinktm.hpp"
#include "checks.hpp"

namespace perfbench {

namespace api = shrinktm::api;

/// An account is one transactional word: the balance in the high half, the
/// count of writes committed to it in the low half.  A lost update therefore
/// loses balance and count together, and the count shows it.
inline std::uint64_t pack(const Account& a) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.balance)) << 32) |
         static_cast<std::uint32_t>(a.writes);
}
inline Account unpack(std::uint64_t w) {
  return {static_cast<std::int32_t>(w >> 32), w & 0xFFFFFFFFu};
}

/// Volatile accounts, one TVar each.
class VolatileAccounts {
 public:
  VolatileAccounts(std::size_t n, std::int64_t initial_balance)
      : words_(new api::TVar<std::uint64_t>[n]), n_(n) {
    for (std::size_t a = 0; a < n; ++a) words_[a].unsafe_write(pack({initial_balance, 0}));
  }
  Account read(api::Tx& tx, std::size_t a) const { return unpack(tx.read(words_[a])); }
  void write(api::Tx& tx, std::size_t a, const Account& v) { tx.write(words_[a], pack(v)); }
  std::vector<Account> unsafe_state() const {
    std::vector<Account> s(n_);
    for (std::size_t a = 0; a < n_; ++a) s[a] = unpack(words_[a].unsafe_read());
    return s;
  }

 private:
  std::unique_ptr<api::TVar<std::uint64_t>[]> words_;
  std::size_t n_;
};

/// Accounts in a durable region (leader, follower or recovered copy),
/// spread evenly across it.
class RegionAccounts {
 public:
  RegionAccounts(api::Region& region, std::size_t n)
      : region_(&region), n_(n), stride_(region.size() / n) {}
  Account read(api::Tx& tx, std::size_t a) const { return unpack(tx.read(slot(a))); }
  void write(api::Tx& tx, std::size_t a, const Account& v) { slot(a).write(tx, pack(v)); }
  std::vector<Account> unsafe_state() const {
    std::vector<Account> s(n_);
    for (std::size_t a = 0; a < n_; ++a) s[a] = unpack(slot(a).unsafe_read());
    return s;
  }
  std::vector<Account> read_all(api::Tx& tx) const {
    std::vector<Account> s(n_);
    for (std::size_t a = 0; a < n_; ++a) s[a] = read(tx, a);
    return s;
  }
  /// The region word holding account `a`.
  api::Slot<std::uint64_t> slot(std::size_t a) const {
    return region_->slot<std::uint64_t>(a * stride_);
  }

 private:
  api::Region* region_;
  std::size_t n_;
  std::size_t stride_;
};

/// Move `amount` from `src` to `dst`, reading both first.
template <typename Accounts>
void transfer(api::Tx& tx, Accounts& accts, std::size_t src, std::size_t dst,
              std::int64_t amount) {
  Account s = accts.read(tx, src);
  Account d = accts.read(tx, dst);
  s.balance -= amount;
  d.balance += amount;
  ++s.writes;
  ++d.writes;
  accts.write(tx, src, s);
  accts.write(tx, dst, d);
}

}  // namespace perfbench
