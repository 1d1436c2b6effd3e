// Unit tests for the I-structure cell store behind `--store=local`
// (native/shm_store.hpp), driven directly from several threads: readers
// park on absent elements while writers fill them. The properties are the
// ones the native engine leans on — parks are exact (each parked
// continuation comes back once, from the write that fills its element, and
// a reader that got the value directly never comes back), and single
// assignment is enforced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "native/shm_store.hpp"

namespace pods::native {
namespace {

ShmStorePtr acquire(int numPes) {
  std::string err;
  ShmStorePtr s = ShmStore::acquireLocal(numPes, &err);
  EXPECT_NE(s, nullptr) << err;
  return s;
}

Value valueOf(std::int64_t elem) { return Value::intv(elem * 7 + 1); }

/// A reader's continuation for one element: unique per (reader, element).
std::uint64_t contOf(int reader, std::int64_t elem) {
  return (static_cast<std::uint64_t>(reader) << 32) |
         static_cast<std::uint64_t>(elem);
}

TEST(CellStore, ParkedReadsComeBackExactlyOnceFromTheFillingWrite) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 3;
  constexpr std::int64_t kElems = 3000;
  for (int round = 0; round < 4; ++round) {
    ShmStorePtr store = acquire(1);
    ASSERT_NE(store, nullptr);
    ArrayShape shape;
    shape.dim0 = kElems;
    const ShmStore::ArrayRef a = store->createArray(1, shape);
    ASSERT_TRUE(a.valid());

    // Outcome of every (reader, element) read: 1 = value at once, 2 = parked.
    std::vector<std::vector<int>> outcome(
        kReaders, std::vector<int>(static_cast<std::size_t>(kElems), 0));
    std::vector<std::vector<std::pair<std::int64_t, std::uint64_t>>> woken(
        kWriters);
    std::atomic<bool> go{false};
    std::atomic<int> badValues{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        std::vector<std::int64_t> order(static_cast<std::size_t>(kElems));
        for (std::int64_t e = 0; e < kElems; ++e)
          order[static_cast<std::size_t>(e)] = e;
        std::shuffle(order.begin(), order.end(),
                     std::mt19937(static_cast<unsigned>(round * 97 + r)));
        while (!go.load()) {
        }
        for (const std::int64_t e : order) {
          Value v;
          switch (store->readOrPark(a, e, contOf(r, e), &v)) {
            case ShmStore::Read::Present:
              outcome[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)] = 1;
              if (!v.identical(valueOf(e))) badValues.fetch_add(1);
              break;
            case ShmStore::Read::Parked:
              outcome[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)] = 2;
              break;
            case ShmStore::Read::OutOfSpace:
              badValues.fetch_add(1);
              break;
          }
        }
      });
    }
    for (int wr = 0; wr < kWriters; ++wr) {
      threads.emplace_back([&, wr] {
        std::vector<std::int64_t> mine;
        for (std::int64_t e = wr; e < kElems; e += kWriters) mine.push_back(e);
        std::shuffle(mine.begin(), mine.end(),
                     std::mt19937(static_cast<unsigned>(round * 31 + wr)));
        while (!go.load()) {
        }
        std::vector<std::uint64_t> conts;
        for (const std::int64_t e : mine) {
          conts.clear();
          if (store->write(a, e, valueOf(e), &conts) !=
              ShmStore::Write::Filled) {
            badValues.fetch_add(1);
          }
          for (const std::uint64_t c : conts)
            woken[static_cast<std::size_t>(wr)].emplace_back(e, c);
        }
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(badValues.load(), 0) << "round " << round;

    // Every continuation a write returned, with the element it filled.
    std::map<std::uint64_t, std::vector<std::int64_t>> returned;
    for (const auto& list : woken)
      for (const auto& [elem, cont] : list) returned[cont].push_back(elem);
    std::int64_t parked = 0;
    for (int r = 0; r < kReaders; ++r) {
      for (std::int64_t e = 0; e < kElems; ++e) {
        const int o =
            outcome[static_cast<std::size_t>(r)][static_cast<std::size_t>(e)];
        ASSERT_NE(o, 0);
        auto it = returned.find(contOf(r, e));
        if (o == 1) {
          EXPECT_EQ(it, returned.end())
              << "reader " << r << " had element " << e
              << " directly but a write returned its continuation";
          continue;
        }
        ++parked;
        ASSERT_NE(it, returned.end())
            << "parked read of element " << e << " by reader " << r
            << " never came back";
        EXPECT_EQ(it->second, std::vector<std::int64_t>{e})
            << "reader " << r << " element " << e;
      }
    }
    EXPECT_EQ(static_cast<std::size_t>(parked), returned.size());

    // Every element is set now: a second write is refused, and returns no
    // continuation.
    for (std::int64_t e = 0; e < kElems; ++e) {
      std::vector<std::uint64_t> conts;
      EXPECT_EQ(store->write(a, e, valueOf(e), &conts),
                ShmStore::Write::Rewrite);
      EXPECT_EQ(store->write(a, e, Value::intv(-1), &conts),
                ShmStore::Write::Conflict);
      EXPECT_EQ(store->write(a, e, Value::realv(valueOf(e).asReal()), &conts),
                ShmStore::Write::Conflict);
      EXPECT_TRUE(conts.empty());
    }
  }
}

TEST(CellStore, ReplayedParkIsHeldOnce) {
  ShmStorePtr store = acquire(2);
  ASSERT_NE(store, nullptr);
  ArrayShape shape;
  shape.dim0 = 4;
  const ShmStore::ArrayRef a = store->createArray(2, shape);
  ASSERT_TRUE(a.valid());
  Value v;
  // A read replayed after a kill re-parks the continuation its earlier
  // incarnation left on the element; the fill must return it once.
  EXPECT_EQ(store->readOrPark(a, 3, 11, &v), ShmStore::Read::Parked);
  EXPECT_EQ(store->readOrPark(a, 3, 12, &v), ShmStore::Read::Parked);
  EXPECT_EQ(store->readOrPark(a, 3, 11, &v), ShmStore::Read::Parked);
  std::vector<std::uint64_t> conts;
  EXPECT_EQ(store->write(a, 3, Value::realv(2.5), &conts),
            ShmStore::Write::Filled);
  std::sort(conts.begin(), conts.end());
  EXPECT_EQ(conts, (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(store->readOrPark(a, 3, 11, &v), ShmStore::Read::Present);
  EXPECT_TRUE(v.identical(Value::realv(2.5)));
  EXPECT_FALSE(store->tryRead(a, 2, &v));
}

TEST(CellStore, TableIsIndexedByPerPeStream) {
  constexpr int kPes = 4;
  ShmStorePtr store = acquire(kPes);
  ASSERT_NE(store, nullptr);
  ArrayShape one;
  one.dim0 = 1;
  // All allocations on PE 1 — the skew a hashed or id-indexed table pays
  // for — well past the 65,536 arrays the old hashed table held.
  const auto idOf = [](std::uint32_t seq) { return seq * kPes + 1; };
  std::vector<std::uint64_t> cellsOff;
  for (std::uint32_t seq = 1; seq <= 70000; ++seq) {
    const ShmStore::ArrayRef a = store->createArray(idOf(seq), one);
    ASSERT_TRUE(a.valid()) << "seq " << seq;
    cellsOff.push_back(a.cellsOff);
  }
  for (std::uint32_t seq = 1; seq <= 70000; seq += 997) {
    const ShmStore::ArrayRef a = store->lookup(idOf(seq));
    ASSERT_TRUE(a.valid());
    EXPECT_EQ(a.cellsOff, cellsOff[seq - 1]);
    EXPECT_EQ(a.shape.dim0, 1);
    // Create is idempotent: a replayed ALLOC finds the original cells.
    EXPECT_EQ(store->createArray(idOf(seq), one).cellsOff, a.cellsOff);
  }
  EXPECT_FALSE(store->lookup(idOf(70001)).valid());
  EXPECT_FALSE(store->lookup(idOf(5) + 1).valid());  // PE 2 allocated nothing
}

TEST(CellStore, ReleasedStoreComesBackEmpty) {
  ArrayShape shape;
  shape.rank = 2;
  shape.dim0 = 3;
  shape.dim1 = 5;
  {
    ShmStorePtr store = acquire(1);
    ASSERT_NE(store, nullptr);
    const ShmStore::ArrayRef a = store->createArray(1, shape);
    ASSERT_TRUE(a.valid());
    std::vector<std::uint64_t> conts;
    Value v;
    EXPECT_EQ(store->readOrPark(a, 0, 9, &v), ShmStore::Read::Parked);
    EXPECT_EQ(store->write(a, 7, Value::intv(4), &conts),
              ShmStore::Write::Filled);
  }
  ShmStorePtr store = acquire(1);
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->lookup(1).valid());
  const ShmStore::ArrayRef a = store->createArray(1, shape);
  ASSERT_TRUE(a.valid());
  std::vector<Value> elems;
  store->gather(a, &elems);
  ASSERT_EQ(elems.size(), 15u);
  for (const Value& e : elems) EXPECT_TRUE(e.empty());
  std::vector<std::uint64_t> conts;
  EXPECT_EQ(store->write(a, 0, Value::intv(1), &conts),
            ShmStore::Write::Filled);
  EXPECT_TRUE(conts.empty());  // the earlier run's park is gone
}

}  // namespace
}  // namespace pods::native
