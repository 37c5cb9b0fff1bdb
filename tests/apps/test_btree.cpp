#include "apps/btree.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace neo::app {
namespace {

Bytes k(std::string_view s) { return to_bytes(s); }

TEST(BTree, EmptyTree) {
    BTreeMap t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.get(k("missing")), nullptr);
    EXPECT_FALSE(t.erase(k("missing")));
    EXPECT_TRUE(t.check_invariants());
}

TEST(BTree, PutGetSingle) {
    BTreeMap t;
    EXPECT_TRUE(t.put(k("a"), k("1")));
    ASSERT_NE(t.get(k("a")), nullptr);
    EXPECT_EQ(*t.get(k("a")), k("1"));
    EXPECT_EQ(t.size(), 1u);
}

TEST(BTree, UpdateOverwrites) {
    BTreeMap t;
    EXPECT_TRUE(t.put(k("a"), k("1")));
    EXPECT_FALSE(t.put(k("a"), k("2")));
    EXPECT_EQ(*t.get(k("a")), k("2"));
    EXPECT_EQ(t.size(), 1u);
}

TEST(BTree, ManySequentialInserts) {
    BTreeMap t;
    for (int i = 0; i < 1000; ++i) {
        t.put(k("key" + std::to_string(10000 + i)), k("v" + std::to_string(i)));
    }
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_TRUE(t.check_invariants());
    for (int i = 0; i < 1000; ++i) {
        const Bytes* v = t.get(k("key" + std::to_string(10000 + i)));
        ASSERT_NE(v, nullptr) << i;
        EXPECT_EQ(*v, k("v" + std::to_string(i)));
    }
}

TEST(BTree, ForEachInSortedOrder) {
    BTreeMap t;
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        t.put(rng.bytes(8), rng.bytes(4));
    }
    Bytes prev;
    std::size_t count = 0;
    t.for_each([&](const Bytes& key, const Bytes&) {
        if (count > 0) {
            EXPECT_LT(prev, key);
        }
        prev = key;
        ++count;
    });
    EXPECT_EQ(count, t.size());
}

TEST(BTree, EraseLeafKeys) {
    BTreeMap t;
    for (int i = 0; i < 100; ++i) t.put(k("k" + std::to_string(i)), k("v"));
    for (int i = 0; i < 100; i += 2) EXPECT_TRUE(t.erase(k("k" + std::to_string(i))));
    EXPECT_EQ(t.size(), 50u);
    EXPECT_TRUE(t.check_invariants());
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(t.get(k("k" + std::to_string(i))) != nullptr, i % 2 == 1) << i;
    }
}

TEST(BTree, EraseEverything) {
    BTreeMap t;
    for (int i = 0; i < 300; ++i) t.put(k("x" + std::to_string(i)), k("v"));
    for (int i = 0; i < 300; ++i) {
        EXPECT_TRUE(t.erase(k("x" + std::to_string(i)))) << i;
        EXPECT_TRUE(t.check_invariants()) << i;
    }
    EXPECT_TRUE(t.empty());
}

TEST(BTree, EraseDescendingOrder) {
    BTreeMap t;
    for (int i = 0; i < 300; ++i) t.put(k("x" + std::to_string(1000 + i)), k("v"));
    for (int i = 299; i >= 0; --i) {
        EXPECT_TRUE(t.erase(k("x" + std::to_string(1000 + i)))) << i;
    }
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.check_invariants());
}

class BTreeRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BTreeRandomSweep, MatchesStdMapUnderRandomOps) {
    // Property test: the B-Tree agrees with std::map through thousands of
    // random put/get/erase ops and keeps its invariants.
    BTreeMap t;
    std::map<Bytes, Bytes> ref;
    Rng rng(GetParam());

    for (int i = 0; i < 4000; ++i) {
        Bytes key = rng.bytes(1 + rng.uniform(3));  // small key space -> collisions
        int action = static_cast<int>(rng.uniform(3));
        if (action == 0) {
            Bytes value = rng.bytes(6);
            bool was_new = !ref.contains(key);
            EXPECT_EQ(t.put(key, value), was_new);
            ref[key] = value;
        } else if (action == 1) {
            const Bytes* v = t.get(key);
            auto it = ref.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr);
                EXPECT_EQ(*v, it->second);
            }
        } else {
            EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
        }
        if (i % 256 == 0) {
            EXPECT_TRUE(t.check_invariants()) << "op " << i;
        }
    }
    EXPECT_EQ(t.size(), ref.size());
    EXPECT_TRUE(t.check_invariants());

    // Full content comparison.
    auto it = ref.begin();
    t.for_each([&](const Bytes& key, const Bytes& value) {
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(key, it->first);
        EXPECT_EQ(value, it->second);
        ++it;
    });
    EXPECT_EQ(it, ref.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(BTree, LargeDatasetLookups) {
    BTreeMap t;
    for (int i = 0; i < 100'000; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "user%012d", i);
        t.put(to_bytes(buf), to_bytes("value"));
    }
    EXPECT_EQ(t.size(), 100'000u);
    EXPECT_TRUE(t.check_invariants());
    EXPECT_NE(t.get(to_bytes("user000000099999")), nullptr);
    EXPECT_EQ(t.get(to_bytes("user000000100000")), nullptr);
}

}  // namespace
}  // namespace neo::app
