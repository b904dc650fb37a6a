// Self-test of the correctness checks: each is fed a correct state, which it
// must pass, and a deliberately wrong one, which it must fail or count.
//
//   perfbench --self-test [--workdir DIR]
//
// The wrong states are made in the program itself where one can be: a key
// erased from a real tree, a word changed in a live follower's region, a
// leader directory whose changelog lost its last acknowledged record.
#include <unistd.h>

#include <filesystem>
#include <iostream>

#include "harness.hpp"
#include "ledger.hpp"
#include "replica/ship_server.hpp"
#include "txstruct/rbtree.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kBalance = 1000;
constexpr std::size_t kAccounts = 64;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

/// A tally and the state it implies after a few seeded transfers.
std::pair<std::vector<Account>, LedgerTally> replayed_ledger() {
  std::vector<Account> state(kAccounts, Account{kBalance, 0});
  LedgerTally tally(kAccounts);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::size_t s = rng.below(kAccounts), d = (s + 1 + rng.below(kAccounts - 1)) % kAccounts;
    const auto amt = static_cast<std::int64_t>(1 + rng.below(50));
    state[s].balance -= amt;
    ++state[s].writes;
    state[d].balance += amt;
    ++state[d].writes;
    tally.add(s, -amt);
    tally.add(d, amt);
  }
  return {state, tally};
}

void ledger_cases() {
  auto [state, tally] = replayed_ledger();
  const LedgerVerdict good = check_ledger(state, tally, kBalance);
  expect(good.ok() && good.lost_writes == 0, "ledger: replayed state passes");

  auto off = state;
  off[5].balance += 1;
  expect(!check_ledger(off, tally, kBalance).ok(), "ledger: one balance off by one fails");

  // A lost write: one committed update of account 9 vanished, as if a
  // later transaction had overwritten it from a stale read.
  auto lost = state;
  lost[9].writes -= 1;
  lost[9].balance -= 17;
  const LedgerVerdict v = check_ledger(lost, tally, kBalance);
  expect(v.lost_writes == 1 && v.mismatched == 0, "ledger: one lost write is counted");
}

void tree_case() {
  using Tree = shrinktm::txs::TxRBTree<std::uint64_t, std::uint64_t>;
  api::Runtime rt(api::RuntimeOptions{}.with_backend("tiny").with_scheduler("shrink"));
  api::ThreadHandle th = rt.attach();
  Tree tree;
  std::vector<std::uint64_t> expected(256, 0);
  for (std::uint64_t k = 0; k < expected.size(); k += 3) {
    expected[k] = k * 7 + 1;
    atomically(th, [&](api::Tx& tx) { tree.insert(tx, k, expected[k]); });
  }
  const auto walk = [&] {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> v;
    tree.unsafe_for_each([&](std::uint64_t k, std::uint64_t x) { v.emplace_back(k, x); });
    return v;
  };
  expect(check_tree(walk(), tree.unsafe_check_invariants(), expected).ok(),
         "tree: replayed tree passes");
  atomically(th, [&](api::Tx& tx) { tree.erase(tx, 99); });
  const TreeVerdict v = check_tree(walk(), tree.unsafe_check_invariants(), expected);
  expect(!v.ok() && v.missing == 1, "tree: one key dropped from the tree fails");
}

/// Funds a leader in `dir` and runs `transfers` transfers, tallying them.
/// Returns the changelog size before the last transfer.
std::uintmax_t run_leader(api::Runtime& rt, LedgerTally& tally, int transfers,
                          const fs::path& dir) {
  RegionAccounts accts(*rt.durable_region(), kAccounts);
  api::ThreadHandle th = rt.attach();
  atomically(th, [&](api::Tx& tx) {
    for (std::size_t a = 0; a < kAccounts; ++a) accts.write(tx, a, {kBalance, 0});
  });
  Rng rng(11);
  std::uintmax_t before_last = 0;
  for (int i = 0; i < transfers; ++i) {
    before_last = fs::file_size(dir / "changelog.shtm");
    const std::size_t s = rng.below(kAccounts), d = (s + 1) % kAccounts;
    const auto amt = static_cast<std::int64_t>(1 + rng.below(50));
    atomically(th, [&](api::Tx& tx) { transfer(tx, accts, s, d, amt); });
    tally.add(s, -amt);
    tally.add(d, amt);
  }
  return before_last;
}

void follower_case(const fs::path& dir) {
  api::Runtime leader(api::RuntimeOptions{}.with_log_dir(dir.string()));
  LedgerTally tally(kAccounts);
  run_leader(leader, tally, 50, dir);
  shrinktm::replica::ShipServer ship({dir.string(), 0, nullptr});
  api::ReplicaOptions ropts;
  ropts.endpoint = ship.endpoint();
  api::ReplicaRuntime follower(ropts);
  const bool drained = follower.wait_until(leader.commit_ts(), std::chrono::seconds(30));
  RegionAccounts leader_accts(*leader.durable_region(), kAccounts);
  RegionAccounts faccts(follower.region(), kAccounts);
  const auto read_follower = [&] {
    return atomically(follower, [&](api::Tx& tx) { return faccts.read_all(tx); });
  };
  const auto leader_state = leader_accts.unsafe_state();
  auto fstate = read_follower();
  expect(drained && count_differences(fstate, leader_state) == 0 &&
             check_ledger(fstate, tally, kBalance).ok(),
         "follower: drained follower passes");

  // Change one follower word behind the applier's back.
  const auto slot = faccts.slot(3);
  slot.unsafe_write(slot.unsafe_read() + (std::uint64_t{1} << 32));
  fstate = read_follower();
  const bool caught = count_differences(fstate, leader_state) == 1 &&
                      !check_ledger(fstate, tally, kBalance).ok() &&
                      total_balance(fstate) != kBalance * static_cast<std::int64_t>(kAccounts);
  expect(caught, "follower: one follower word changed fails (state, replay and audit)");
}

void recovery_case(const fs::path& dir) {
  LedgerTally tally(kAccounts);
  std::uintmax_t before_last = 0;
  std::vector<Account> leader_state;
  {
    api::Runtime leader(api::RuntimeOptions{}.with_log_dir(dir.string()));
    before_last = run_leader(leader, tally, 20, dir);
    leader_state = RegionAccounts(*leader.durable_region(), kAccounts).unsafe_state();
  }
  const auto reopen = [&] {
    api::Runtime rt(api::RuntimeOptions{}.with_log_dir(dir.string()));
    return RegionAccounts(*rt.durable_region(), kAccounts).unsafe_state();
  };
  auto recovered = reopen();
  expect(count_differences(recovered, leader_state) == 0 &&
             check_ledger(recovered, tally, kBalance).ok() &&
             check_ledger(recovered, tally, kBalance).lost_writes == 0,
         "recovery: reopened directory passes");

  fs::resize_file(dir / "changelog.shtm", before_last);
  recovered = reopen();
  const LedgerVerdict v = check_ledger(recovered, tally, kBalance);
  expect(count_differences(recovered, leader_state) == 2 && v.lost_writes == 2,
         "recovery: directory missing its last acknowledged record fails");
}

}  // namespace

int self_test(const Options& opts) {
  const fs::path base =
      fs::absolute(fs::path(opts.workdir) / ("selftest-" + std::to_string(::getpid())));
  fs::remove_all(base);
  fs::create_directories(base);
  try {
    ledger_cases();
    tree_case();
    follower_case(base / "follower");
    recovery_case(base / "recovery");
  } catch (const std::exception& e) {
    std::cout << "FAIL self-test aborted: " << e.what() << "\n";
    ++failures;
  }
  fs::remove_all(base);
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
