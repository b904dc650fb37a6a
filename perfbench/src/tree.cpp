// cold-tree: lookups and owner-only updates on a large txs::TxRBTree.
//
// Key k belongs to client k mod C, and only its owner inserts or erases it,
// so each client's replay of its own updates is the truth for its keys: the
// final tree must equal the union of the replays, and a lookup of an own key
// must return what the replay holds.
#include <algorithm>

#include "harness.hpp"
#include "txstruct/rbtree.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kKeySlots = std::uint64_t{1} << 20;
constexpr int kTreeClients = 4;

/// A nonzero value for `key` at update number `version` (0 = initial fill).
std::uint64_t value_for(std::uint64_t seed, std::uint64_t key, std::uint64_t version) {
  Rng r(seed ^ (key << 20) ^ (version * 0x9E3779B97F4A7C15ULL));
  return r.next() | 1;
}

using Tree = shrinktm::txs::TxRBTree<std::uint64_t, std::uint64_t>;

struct TreeClient {
  TreeClient(const Options& opts, int c, int clients)
      : client(std::make_unique<Client>(opts)),
        replay((kKeySlots - static_cast<std::uint64_t>(c) + static_cast<std::uint64_t>(clients) - 1) /
               static_cast<std::uint64_t>(clients), 0),
        rng(stream_rng(opts.seed, 200 + static_cast<std::uint64_t>(c))) {}
  std::unique_ptr<Client> client;
  LineVector<std::uint64_t> replay;  ///< own key c + i*C -> value, 0 absent
  Rng rng;
  std::uint64_t version = 0;
};

}  // namespace

Result cold_tree(const Options& opts, std::uint64_t process_start_ns) {
  Result r;
  const int nclients = client_count(kTreeClients);
  const auto C = static_cast<std::uint64_t>(nclients);
  api::Runtime rt(api::RuntimeOptions{}
                      .with_backend("tiny")
                      .with_scheduler(opts.scheduler)
                      .with_seed(opts.seed));
  auto tree = std::make_unique<Tree>();
  std::vector<TreeClient> tc;
  for (int c = 0; c < nclients; ++c) tc.emplace_back(opts, c, nclients);

  // Fill half the key slots, chosen and ordered by the seed.
  {
    Rng rng = stream_rng(opts.seed, 2);
    std::vector<std::uint64_t> keys;
    keys.reserve(kKeySlots / 2 + kKeySlots / 64);
    for (std::uint64_t k = 0; k < kKeySlots; ++k)
      if (rng.next() & 1) keys.push_back(k);
    for (std::size_t i = keys.size() - 1; i > 0; --i)
      std::swap(keys[i], keys[rng.below(i + 1)]);
    api::ThreadHandle th = rt.attach();
    for (const std::uint64_t k : keys) {
      const std::uint64_t v = value_for(opts.seed, k, 0);
      atomically(th, [&](api::Tx& tx) { tree->insert(tx, k, v); });
      tc[k % C].replay[k / C] = v;
    }
  }
  const double setup_s = static_cast<double>(now_ns() - process_start_ns) / 1e9;

  api::RuntimeStats at_go;
  std::uint64_t tsc0 = 0;
  const double secs = run_window(
      nclients, opts,
      [&](int c, Phases& phases) {
        TreeClient& me = tc[static_cast<std::size_t>(c)];
        Client& cl = *me.client;
        set_thread_trace(&cl.trace);
        api::ThreadHandle th = rt.attach();
        const auto own = static_cast<std::uint64_t>(c);
        client_loop(phases, &cl, [&](bool timed) {
          if (me.rng.below(10) != 0) {
            const std::uint64_t key = me.rng.below(kKeySlots);
            std::optional<std::uint64_t> got;
            run_op(th, cl, timed, [&](api::Tx& tx) { got = tree->lookup(tx, key); });
            if (key % C == own) {
              const std::uint64_t want = me.replay[key / C];
              if (got.value_or(0) != want) ++cl.failed;
            }
            return;
          }
          const std::uint64_t idx = me.rng.below(me.replay.size());
          const std::uint64_t key = own + idx * C;
          std::uint64_t& want = me.replay[idx];
          bool changed = false;
          if (want != 0) {
            run_op(th, cl, timed, [&](api::Tx& tx) { changed = tree->erase(tx, key); });
            want = 0;
          } else {
            const std::uint64_t v = value_for(opts.seed, key, ++me.version);
            run_op(th, cl, timed, [&](api::Tx& tx) { changed = tree->insert(tx, key, v); });
            want = v;
          }
          if (!changed) ++cl.failed;
        });
        set_thread_trace(nullptr);
      },
      [&] {
        rt.reset_stats();
        at_go = rt.stats();
        tsc0 = ticks();
      });
  const std::uint64_t tsc1 = ticks();
  const double rss = peak_rss_mb();
  const api::RuntimeStats window = rt.stats();

  std::vector<std::uint64_t> expected(kKeySlots, 0);
  for (std::uint64_t k = 0; k < kKeySlots; ++k) expected[k] = tc[k % C].replay[k / C];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> inorder;
  inorder.reserve(kKeySlots / 2 + kKeySlots / 64);
  tree->unsafe_for_each([&](std::uint64_t k, std::uint64_t v) { inorder.emplace_back(k, v); });
  const TreeVerdict v = check_tree(inorder, tree->unsafe_check_invariants(), expected);
  if (!v.ok())
    r.fail("cold-tree: ordered=" + std::to_string(v.ordered) +
           " balanced=" + std::to_string(v.balanced) +
           " missing=" + std::to_string(v.missing) +
           " unexpected=" + std::to_string(v.unexpected) +
           " wrong_value=" + std::to_string(v.wrong_value));

  std::vector<std::unique_ptr<Client>> clients;
  for (auto& c : tc) clients.push_back(std::move(c.client));
  report_common(r, opts, clients, secs, window, at_go, setup_s, rss, tsc0, tsc1);
  return r;
}

}  // namespace perfbench
