// Output digests of every registry construction on the golden sweep's
// inputs: er, geo, ring and grid at n=300, seeds 1 and 2, default params.
// tests/golden/records.jsonl pins each run's costs and edge *counts*; these
// digests pin the edge and vertex sets themselves, so a change that keeps
// every count but moves an edge (a misplaced delivery, a reordered dedupe)
// still fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/run_context.h"
#include "api/scenario.h"

namespace lightnet {
namespace {

// FNV-1a 64 over the ids' little-endian bytes, 8 per id, in output order
// (the digest of tests/baselines_test.cc).
template <typename Id>
std::uint64_t id_digest(const std::vector<Id>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Id id : ids) {
    const auto word = static_cast<std::uint64_t>(static_cast<std::int64_t>(id));
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct Pinned {
  const char* construction;
  const char* family;
  std::uint64_t seed;
  size_t edges;
  std::uint64_t edge_digest;
  size_t vertices;
  std::uint64_t vertex_digest;
};

// Artifacts as the CLI runs them (run seed = scenario seed). The digests
// were taken before flood records and the mask-based dedupe_edge_ids, with
// per-link flood staging and a sorting dedupe.
const Pinned kPinned[] = {
    {"slt", "er", 1, 299, 0xcf16f1babdb8a9e7ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "er", 1, 299, 0x4c2400c66f65830dULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "er", 1, 1508, 0x24e8f6ce3ff12b99ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "er", 1, 1017, 0xe4ecb901322512e5ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "er", 1, 0, 0xcbf29ce484222325ULL, 35, 0x8416f09b639ffe87ULL},
    {"mst_weight_estimate", "er", 1, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "er", 1, 1503, 0xde5489cfbd45306aULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "er", 1, 1505, 0xc09f1eb9cab697b0ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "er", 1, 299, 0xd68af7f28cad3578ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "er", 1, 375, 0x3ce026a48fd2fd6dULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "er", 1, 299, 0x5ed0116512e15dc0ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "er", 1, 0, 0xcbf29ce484222325ULL, 41, 0x91b549e39d9364f6ULL},
    {"slt", "er", 2, 299, 0x95026a960cab9a3cULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "er", 2, 299, 0x3483d4850cf345f6ULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "er", 2, 1502, 0x4a12b35dad143187ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "er", 2, 1023, 0x597c1504955cbdfcULL, 0, 0xcbf29ce484222325ULL},
    {"net", "er", 2, 0, 0xcbf29ce484222325ULL, 31, 0x2730d80611c472d9ULL},
    {"mst_weight_estimate", "er", 2, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "er", 2, 1495, 0x617e5eff6651e6c7ULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "er", 2, 1491, 0x4fcfb6cb9f2b715bULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "er", 2, 299, 0xe9df5bc607da3bd4ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "er", 2, 360, 0x09bcac43592cb32bULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "er", 2, 299, 0x35cba5e1e05c2ca0ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "er", 2, 0, 0xcbf29ce484222325ULL, 40, 0xde0240c60a2b466bULL},
    {"slt", "geo", 1, 299, 0xba0ce79ba0a9b70bULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "geo", 1, 299, 0xabbabb6ece3b12dfULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "geo", 1, 4080, 0x16ec643b470dc090ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "geo", 1, 2754, 0xe831d0eecbd262f4ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "geo", 1, 0, 0xcbf29ce484222325ULL, 26, 0x982ac55d978ba888ULL},
    {"mst_weight_estimate", "geo", 1, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "geo", 1, 2943, 0x8209e8d3856fc3adULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "geo", 1, 3709, 0x2c4f3d3c5c512a6fULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "geo", 1, 299, 0x456ee3261ac52c70ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "geo", 1, 338, 0xe8f0c64f030605c5ULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "geo", 1, 299, 0x9ab99de2ea7519d3ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "geo", 1, 0, 0xcbf29ce484222325ULL, 30, 0xe44d46f31ae26aadULL},
    {"slt", "geo", 2, 299, 0xf642da1c2238e220ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "geo", 2, 299, 0x1c1028acb86b99deULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "geo", 2, 4104, 0x0ecdd9a3ee300e4aULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "geo", 2, 2777, 0x04cc0810e1337d83ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "geo", 2, 0, 0xcbf29ce484222325ULL, 21, 0xfa74a1cb0537f6c2ULL},
    {"mst_weight_estimate", "geo", 2, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "geo", 2, 2670, 0xe2b84d1e5a70134eULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "geo", 2, 2607, 0x37e6fc706850bec5ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "geo", 2, 299, 0x87164f2c96313691ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "geo", 2, 340, 0x2c3f4d1c590138dfULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "geo", 2, 299, 0xf82d0ad15f8cbe50ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "geo", 2, 0, 0xcbf29ce484222325ULL, 27, 0x168bdd71cf327ce3ULL},
    {"slt", "ring", 1, 299, 0xa07c578e859634e0ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "ring", 1, 299, 0x1d3b0257ef72907eULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "ring", 1, 449, 0x74de2eb2e37ed663ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "ring", 1, 423, 0x4778b4c2144277a0ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "ring", 1, 0, 0xcbf29ce484222325ULL, 44, 0x353b21a2e73416c8ULL},
    {"mst_weight_estimate", "ring", 1, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "ring", 1, 450, 0x5f24d6b323a85830ULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "ring", 1, 450, 0x5f24d6b323a85830ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "ring", 1, 299, 0x8bd51844ecdefc70ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "ring", 1, 306, 0x4b6a2c2b1a9cfc46ULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "ring", 1, 299, 0x4d8d5b9702183f06ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "ring", 1, 0, 0xcbf29ce484222325ULL, 75, 0x4dff41f18e5cf666ULL},
    {"slt", "ring", 2, 299, 0xeb28c1d6036e6cd7ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "ring", 2, 299, 0xe367d540852de662ULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "ring", 2, 444, 0x586b4039c6752fd8ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "ring", 2, 424, 0x15a2ad57ddbf2d66ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "ring", 2, 0, 0xcbf29ce484222325ULL, 46, 0xffbd965bcb57ddc8ULL},
    {"mst_weight_estimate", "ring", 2, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "ring", 2, 450, 0x5f24d6b323a85830ULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "ring", 2, 449, 0xa0c8de0105af46d4ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "ring", 2, 299, 0x5cfc9579c2fc22d2ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "ring", 2, 306, 0xbeaf79db0c11be65ULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "ring", 2, 299, 0x279c46b5a492e968ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "ring", 2, 0, 0xcbf29ce484222325ULL, 75, 0x4dff41f18e5cf666ULL},
    {"slt", "grid", 1, 288, 0x830609b9546075e1ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "grid", 1, 288, 0x4f19eb32fd921a87ULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "grid", 1, 543, 0xf99269b135852dc0ULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "grid", 1, 544, 0xed378280acbc8ca5ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "grid", 1, 0, 0xcbf29ce484222325ULL, 31, 0x1ed90fb26f50ef27ULL},
    {"mst_weight_estimate", "grid", 1, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "grid", 1, 544, 0xed378280acbc8ca5ULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "grid", 1, 544, 0xed378280acbc8ca5ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "grid", 1, 288, 0x5af415911b8c8d97ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "grid", 1, 386, 0xd2c816dd88d699a0ULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "grid", 1, 288, 0xcc64c2633d66f932ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "grid", 1, 0, 0xcbf29ce484222325ULL, 41, 0x2231c82a0a4a7a8aULL},
    {"slt", "grid", 2, 288, 0xb4aee1be72d44118ULL, 0, 0xcbf29ce484222325ULL},
    {"slt_light", "grid", 2, 288, 0x426c88923b1aabd5ULL, 0, 0xcbf29ce484222325ULL},
    {"light_spanner", "grid", 2, 543, 0xd4c26f03138e619bULL, 0, 0xcbf29ce484222325ULL},
    {"doubling_spanner", "grid", 2, 544, 0xed378280acbc8ca5ULL, 0, 0xcbf29ce484222325ULL},
    {"net", "grid", 2, 0, 0xcbf29ce484222325ULL, 27, 0xaa1a84b1aab37123ULL},
    {"mst_weight_estimate", "grid", 2, 0, 0xcbf29ce484222325ULL, 0, 0xcbf29ce484222325ULL},
    {"baswana_sen", "grid", 2, 542, 0x36f86e5fee044766ULL, 0, 0xcbf29ce484222325ULL},
    {"elkin_neiman", "grid", 2, 544, 0xed378280acbc8ca5ULL, 0, 0xcbf29ce484222325ULL},
    {"bfs_tree", "grid", 2, 288, 0x5af415911b8c8d97ULL, 0, 0xcbf29ce484222325ULL},
    {"greedy_spanner", "grid", 2, 392, 0x658f1e2dda3dbdbfULL, 0, 0xcbf29ce484222325ULL},
    {"kry_slt", "grid", 2, 288, 0xd6580dc795709471ULL, 0, 0xcbf29ce484222325ULL},
    {"sequential_net", "grid", 2, 0, 0xcbf29ce484222325ULL, 41, 0x2231c82a0a4a7a8aULL},
};

TEST(OutputDigests, EveryConstructionOnTheGoldenSweepIsPinned) {
  size_t checked = 0;
  for (const char* family : {"er", "geo", "ring", "grid"}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      api::ScenarioSpec spec;
      spec.family = family;
      spec.n = 300;
      spec.seed = seed;
      const WeightedGraph g = api::materialize(spec);
      for (const api::Construction* c : api::all_constructions()) {
        const std::string name(c->name());
        const std::string context = name + "/" + family + "/seed" +
                                    std::to_string(seed);
        const Pinned* pin = nullptr;
        for (const Pinned& p : kPinned)
          if (name == p.construction && std::string(family) == p.family &&
              seed == p.seed)
            pin = &p;
        ASSERT_NE(pin, nullptr) << context << " has no pinned digest";
        api::RunContext ctx;
        ctx.seed = seed;
        const api::Artifact a = c->run(g, api::ConstructionParams{}, ctx);
        EXPECT_EQ(a.edges.size(), pin->edges) << context;
        EXPECT_EQ(id_digest(a.edges), pin->edge_digest) << context;
        EXPECT_EQ(a.vertices.size(), pin->vertices) << context;
        EXPECT_EQ(id_digest(a.vertices), pin->vertex_digest) << context;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
}  // namespace lightnet
