#include "checks.hpp"

namespace perfbench {

void LedgerTally::merge(const LedgerTally& o) {
  for (std::size_t a = 0; a < delta.size(); ++a) {
    delta[a] += o.delta[a];
    writes[a] += o.writes[a];
  }
}

LedgerVerdict check_ledger(const std::vector<Account>& state,
                           const LedgerTally& tally,
                           std::int64_t initial_balance) {
  LedgerVerdict v;
  for (std::size_t a = 0; a < state.size(); ++a) {
    const Account& acct = state[a];
    if (acct.writes > tally.writes[a]) {
      ++v.mismatched;
    } else if (acct.writes < tally.writes[a]) {
      v.lost_writes += tally.writes[a] - acct.writes;
    } else if (acct.balance != initial_balance + tally.delta[a]) {
      ++v.mismatched;
    }
  }
  const auto funded =
      initial_balance * static_cast<std::int64_t>(state.size());
  v.conserved = total_balance(state) == funded;
  return v;
}

std::size_t count_differences(const std::vector<Account>& a,
                              const std::vector<Account>& b) {
  if (a.size() != b.size()) return a.size() > b.size() ? a.size() : b.size();
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += a[i] == b[i] ? 0 : 1;
  return n;
}

std::int64_t total_balance(const std::vector<Account>& state) {
  std::int64_t sum = 0;
  for (const Account& a : state) sum += a.balance;
  return sum;
}

TreeVerdict check_tree(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& inorder,
    int black_height, const std::vector<std::uint64_t>& expected) {
  TreeVerdict v;
  v.balanced = black_height >= 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < inorder.size(); ++i) {
    const auto [key, value] = inorder[i];
    if (i > 0 && !(inorder[i - 1].first < key)) v.ordered = false;
    if (key >= expected.size() || expected[key] == 0) {
      ++v.unexpected;
    } else if (expected[key] != value) {
      ++v.wrong_value;
    } else {
      ++matched;
    }
  }
  std::size_t present = 0;
  for (const std::uint64_t e : expected) present += e != 0 ? 1 : 0;
  const std::size_t found = matched + v.wrong_value;
  v.missing = present > found ? present - found : 0;
  return v;
}

}  // namespace perfbench
