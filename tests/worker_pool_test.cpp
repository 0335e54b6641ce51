// Unit and concurrency tests for nn::WorkerPool, the work-conserving
// compute pool: coverage of every item exactly once, deterministic block
// boundaries, the width budget (callers in flight + joined helpers never
// exceed the width, so at full load nobody is oversubscribed), idle
// helpers joining a lone caller, per-caller exception delivery, and many
// GonModels driven from many threads on one shared pool staying bitwise
// equal to sequential models. Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/encoder.h"
#include "core/gon.h"
#include "nn/threading.h"
#include "sim/federation.h"
#include "sim/topology.h"

namespace carol {
namespace {

// Tracks how many callbacks run at once, with a high-water mark.
struct ConcurrencyMeter {
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};

  void Enter() {
    const int now = active.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
  }
  void Leave() { active.fetch_sub(1); }
};

TEST(WorkerPoolTest, CoversEveryItemExactlyOnce) {
  for (int width : {1, 2, 4}) {
    nn::WorkerPool pool(width);
    EXPECT_EQ(pool.width(), width);
    for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 129u}) {
      for (std::size_t grain : {1u, 3u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(n, grain,
                         [&](std::size_t begin, std::size_t end, int slot) {
                           EXPECT_GE(slot, 0);
                           EXPECT_LT(slot, pool.width());
                           EXPECT_LE(end - begin, grain);
                           for (std::size_t i = begin; i < end; ++i) {
                             hits[i].fetch_add(1);
                           }
                         });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1)
              << "n=" << n << " grain=" << grain << " width=" << width;
        }
      }
    }
  }
  EXPECT_EQ(nn::WorkerPool(0).width(), 1);
}

TEST(WorkerPoolTest, BlockBoundariesAreDeterministic) {
  // Which participant runs a block is dynamic; the blocks themselves are
  // a function of (n, grain) only.
  nn::WorkerPool pool(4);
  const std::size_t n = 10;  // default grain 3: {0..2},{3..5},{6..8},{9}
  for (int run = 0; run < 20; ++run) {
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> blocks;
    pool.ParallelFor(n, [&](std::size_t begin, std::size_t end, int) {
      std::lock_guard<std::mutex> lock(mu);
      blocks.insert({begin, end});
    });
    const std::set<std::pair<std::size_t, std::size_t>> expected = {
        {0, 3}, {3, 6}, {6, 9}, {9, 10}};
    EXPECT_EQ(blocks, expected);
  }
}

TEST(WorkerPoolTest, RethrowsFirstCallbackException) {
  nn::WorkerPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(8,
                       [&](std::size_t begin, std::size_t, int) {
                         if (begin == 0) {
                           throw std::runtime_error("block 0 failed");
                         }
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](std::size_t begin, std::size_t end, int) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 8);
}

TEST(WorkerPoolTest, IdleHelpersJoinALoneCaller) {
  // Block 0 (claimed by the caller first) waits until another block has
  // started — which only a helper can do — so the call completes only if
  // the idle budget joins it.
  nn::WorkerPool pool(4);
  std::atomic<bool> other_started{false};
  std::atomic<bool> helped{false};
  pool.ParallelFor(4, 1, [&](std::size_t begin, std::size_t, int) {
    if (begin == 0) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!other_started.load() &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      helped.store(other_started.load());
    } else {
      other_started.store(true);
    }
  });
  EXPECT_TRUE(helped.load());
  EXPECT_EQ(pool.fanout_calls(), 1u);
  EXPECT_GE(pool.fanout_participants(), 2u);
  EXPECT_LE(pool.fanout_participants(), 4u);
}

TEST(WorkerPoolTest, AttachedThreadsHoldTheirSlots) {
  // A service worker stays attached while it computes outside kernel
  // calls: with both slots of a width-2 pool attached, a caller gets no
  // helper; once the other thread detaches (goes idle), it does.
  nn::WorkerPool pool(2);
  std::atomic<bool> other_attached{false};
  std::atomic<bool> release{false};
  std::thread other([&] {
    pool.Attach();
    other_attached.store(true);
    while (!release.load()) std::this_thread::yield();
    pool.Detach();
  });
  while (!other_attached.load()) std::this_thread::yield();
  pool.Attach();
  EXPECT_THROW(pool.Attach(), std::logic_error);
  std::atomic<int> helper_blocks{0};
  for (int r = 0; r < 20; ++r) {
    pool.ParallelFor(4, 1, [&](std::size_t, std::size_t, int slot) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (slot != 0) helper_blocks.fetch_add(1);
    });
  }
  EXPECT_EQ(helper_blocks.load(), 0);
  EXPECT_EQ(pool.fanout_participants(), pool.fanout_calls());

  release.store(true);
  other.join();
  std::atomic<bool> other_started{false};
  pool.ParallelFor(2, 1, [&](std::size_t begin, std::size_t, int) {
    if (begin == 0) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!other_started.load() &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
    } else {
      other_started.store(true);
    }
  });
  EXPECT_TRUE(other_started.load());
  pool.Detach();
  EXPECT_THROW(pool.Detach(), std::logic_error);
}

TEST(WorkerPoolTest, UnattachedCallersNeverWaitForAttachedThreads) {
  // Both slots of a width-2 pool are held by attached threads that wait
  // on this caller (as a worker blocked on a lock the caller holds
  // would): the caller must still run, on its own, without a helper.
  nn::WorkerPool pool(2);
  std::atomic<int> attached{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&] {
      pool.Attach();
      attached.fetch_add(1);
      while (!done.load()) std::this_thread::yield();
      pool.Detach();
    });
  }
  while (attached.load() < 2) std::this_thread::yield();
  std::atomic<int> items{0};
  pool.ParallelFor(8, 1, [&](std::size_t begin, std::size_t end, int slot) {
    EXPECT_EQ(slot, 0);
    items.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(items.load(), 8);
  done.store(true);
  for (auto& t : workers) t.join();
}

TEST(WorkerPoolTest, ConcurrentCallersNeverExceedTheWidth) {
  // Four client threads drive one width-2 pool at once. Every callback
  // counts itself in; the high-water mark must stay within the width, and
  // every client's items must still be covered exactly once.
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  nn::WorkerPool pool(2);
  ConcurrencyMeter meter;
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t n = 3 + static_cast<std::size_t>((c + r) % 6);
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(n, 1, [&](std::size_t begin, std::size_t end, int) {
          meter.Enter();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          meter.Leave();
        });
        for (auto& h : hits) {
          if (h.load() != 1) errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(meter.high_water.load(), 1);
  EXPECT_LE(meter.high_water.load(), pool.width());
  EXPECT_LE(pool.fanout_participants(),
            pool.fanout_calls() * static_cast<std::uint64_t>(pool.width()));
}

TEST(WorkerPoolTest, ThrowingItemReachesOnlyItsOwnCaller) {
  // One of four concurrent callers throws from one of its blocks. Only
  // that caller sees the exception; the others complete normally and
  // the pool keeps serving.
  constexpr int kClients = 4;
  nn::WorkerPool pool(2);
  std::vector<int> outcome(kClients, -1);  // 0 = ok, 1 = threw
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 10; ++r) {
        try {
          pool.ParallelFor(6, 1, [&](std::size_t begin, std::size_t, int) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
            if (c == 2 && begin == 4) throw std::runtime_error("client 2");
          });
          if (outcome[static_cast<std::size_t>(c)] != 1) {
            outcome[static_cast<std::size_t>(c)] = 0;
          }
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "client 2");
          outcome[static_cast<std::size_t>(c)] = 1;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(outcome, (std::vector<int>{0, 0, 1, 0}));
}

// --- many GonModels on one pool ------------------------------------------

core::GonConfig SmallGonConfig() {
  core::GonConfig cfg;
  cfg.hidden_width = 16;
  cfg.num_layers = 2;
  cfg.gat_width = 8;
  cfg.generation_steps = 6;
  cfg.generation_tol = 5e-4;  // candidates drop out at different steps
  cfg.seed = 5;
  return cfg;
}

core::EncodedState MakeState(int hosts, int brokers, int salt) {
  sim::SystemSnapshot snap;
  snap.topology = sim::Topology::Initial(hosts, brokers);
  snap.hosts.resize(static_cast<std::size_t>(hosts));
  snap.alive.assign(static_cast<std::size_t>(hosts), true);
  for (int i = 0; i < hosts; ++i) {
    auto& m = snap.hosts[static_cast<std::size_t>(i)];
    m.cpu_util = 0.2 + 0.07 * ((i * 7 + salt) % 11);
    m.ram_util = 0.1 + 0.05 * ((i + salt) % 13);
    m.net_util = 0.03 * ((i * 3 + salt) % 7);
    m.energy_kwh = m.cpu_util * 4e-4;
    m.is_broker = snap.topology.is_broker(i);
  }
  return core::FeatureEncoder().Encode(snap);
}

struct ModelRun {
  std::vector<double> scores;
  std::vector<core::GenerationResult> generated;
};

ModelRun RunModel(core::GonModel& gon,
                  const std::vector<core::EncodedState>& states) {
  std::vector<const nn::Matrix*> inits;
  std::vector<const core::EncodedState*> ctxs;
  for (const auto& s : states) {
    inits.push_back(&s.m);
    ctxs.push_back(&s);
  }
  ModelRun run;
  run.generated = gon.GenerateBatch(inits, ctxs);
  run.scores = gon.DiscriminateBatch(ctxs);
  return run;
}

bool SameRun(const ModelRun& a, const ModelRun& b) {
  if (a.scores != b.scores || a.generated.size() != b.generated.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.generated.size(); ++i) {
    if (a.generated[i].steps != b.generated[i].steps ||
        !(a.generated[i].metrics == b.generated[i].metrics)) {
      return false;
    }
  }
  return true;
}

TEST(WorkerPoolTest, ModelsSharingOnePoolMatchSequentialModels) {
  // Four client threads, each driving its own GonModel on ONE width-2
  // pool (the service's shape: one replica per worker, one shared
  // budget). Each client's batches differ in size and host counts so
  // jobs of different shapes interleave on the pool.
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<core::EncodedState>> batches(kClients);
  for (int c = 0; c < kClients; ++c) {
    const int hosts = c % 2 == 0 ? 64 : 32;
    for (int i = 0; i < 5 + 3 * c; ++i) {
      batches[static_cast<std::size_t>(c)].push_back(
          MakeState(hosts, hosts / 8, 10 * c + i));
    }
  }
  batches[3].push_back(MakeState(16, 4, 99));  // a mixed-H bucket
  std::vector<ModelRun> expected;
  {
    core::GonModel sequential(SmallGonConfig());
    for (const auto& batch : batches) {
      expected.push_back(RunModel(sequential, batch));
    }
  }

  nn::WorkerPool pool(2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      core::GonModel model(SmallGonConfig(), &pool);  // same weights
      for (int r = 0; r < kRounds; ++r) {
        const ModelRun run =
            RunModel(model, batches[static_cast<std::size_t>(c)]);
        if (!SameRun(run, expected[static_cast<std::size_t>(c)])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(pool.fanout_calls(), 0u);
  EXPECT_GE(pool.fanout_participants(), pool.fanout_calls());
  EXPECT_LE(pool.fanout_participants(), 2 * pool.fanout_calls());
}

}  // namespace
}  // namespace carol
