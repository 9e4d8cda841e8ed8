/**
 * @file
 * Tests for trace generation: descriptor -> SASS/PTX warp programs,
 * including the systematic PTX-vs-SASS differences that drive the
 * PTX SIM variant's accuracy gap (Section 6.2).
 */
#include <gtest/gtest.h>

#include <map>

#include "trace/tracegen.hpp"

using namespace aw;

namespace {

KernelDescriptor
testKernel()
{
    auto k = makeKernel("trace_test",
                        {{OpClass::IntMad, 0.4},
                         {OpClass::FpFma, 0.4},
                         {OpClass::LdGlobal, 0.2}},
                        80, 4);
    k.bodyInsts = 100;
    k.iterations = 10;
    k.ilpDegree = 6;
    return k;
}

std::map<OpClass, int>
histogram(const WarpProgram &p)
{
    std::map<OpClass, int> h;
    for (const auto &inst : p.body)
        ++h[inst.op];
    return h;
}

} // namespace

TEST(TraceGen, Deterministic)
{
    auto k = testKernel();
    auto a = generateSassProgram(k);
    auto b = generateSassProgram(k);
    ASSERT_EQ(a.body.size(), b.body.size());
    for (size_t i = 0; i < a.body.size(); ++i) {
        EXPECT_EQ(a.body[i].op, b.body[i].op);
        EXPECT_EQ(a.body[i].depDist, b.body[i].depDist);
    }
}

TEST(TraceGen, MixProportionsRespected)
{
    auto k = testKernel();
    auto p = generateSassProgram(k);
    auto h = histogram(p);
    // 40% of 100 = 40 FFMA; memory ops add IMAD address math on top of
    // the 40 IMADs from the mix.
    EXPECT_EQ(h[OpClass::FpFma], 40);
    EXPECT_EQ(h[OpClass::LdGlobal], 20);
    EXPECT_EQ(h[OpClass::IntMad], 40 + 20); // mix + address math
}

TEST(TraceGen, LoopControlAppended)
{
    auto p = generateSassProgram(testKernel());
    ASSERT_GE(p.body.size(), 3u);
    EXPECT_EQ(p.body.back().op, OpClass::Branch);
    EXPECT_EQ(p.body[p.body.size() - 2].op, OpClass::IntAdd);
    EXPECT_EQ(p.body[p.body.size() - 3].op, OpClass::IntAdd);
}

TEST(TraceGen, DynamicInstsCountsIterations)
{
    auto k = testKernel();
    auto p = generateSassProgram(k);
    EXPECT_EQ(p.dynamicInsts(),
              static_cast<long>(p.body.size()) * k.iterations);
}

TEST(TraceGen, PtxHasMoreInstructionsThanSass)
{
    // The virtual ISA does not map 1:1 to the native one: unfused
    // address math, unfused mul+add, residual register moves.
    auto k = testKernel();
    auto sass = generateSassProgram(k);
    auto ptx = generatePtxProgram(k);
    EXPECT_EQ(sass.isa, IsaLevel::Sass);
    EXPECT_EQ(ptx.isa, IsaLevel::Ptx);
    EXPECT_GT(ptx.body.size(), sass.body.size());
}

TEST(TraceGen, PtxUnfusesAddressMath)
{
    KernelDescriptor k = makeKernel("mem_only", {{OpClass::LdGlobal, 1.0}},
                                    80, 4);
    k.bodyInsts = 50;
    auto sass = generateSassProgram(k);
    auto ptx = generatePtxProgram(k);
    auto hs = histogram(sass);
    auto hp = histogram(ptx);
    // SASS: one IMAD per load. PTX: mul + add per load, no IMAD.
    EXPECT_EQ(hs[OpClass::IntMad], 50);
    EXPECT_EQ(hp[OpClass::IntMad], 0);
    EXPECT_EQ(hp[OpClass::IntMul], 50);
    EXPECT_GE(hp[OpClass::IntAdd], 50);
    EXPECT_EQ(hs[OpClass::LdGlobal], hp[OpClass::LdGlobal]);
}

TEST(TraceGen, DependencyDistancesEncodeIlp)
{
    auto k = testKernel();
    auto p = generateSassProgram(k);
    bool sawIlpDep = false;
    for (const auto &inst : p.body) {
        if (inst.depDist == static_cast<uint16_t>(k.ilpDegree))
            sawIlpDep = true;
        EXPECT_LE(inst.depDist, 64) << "scoreboard window exceeded";
    }
    EXPECT_TRUE(sawIlpDep);
}

TEST(TraceGen, TransactionsPropagated)
{
    KernelDescriptor k = makeKernel("uncoalesced",
                                    {{OpClass::LdGlobal, 1.0}}, 80, 4);
    k.transactionsPerMemAccess = 8;
    auto p = generateSassProgram(k);
    for (const auto &inst : p.body)
        if (inst.op == OpClass::LdGlobal) {
            EXPECT_EQ(inst.transactions, 8);
        }
}

TEST(TraceGen, RegisterOperandCounts)
{
    auto k = testKernel();
    auto p = generateSassProgram(k);
    for (const auto &inst : p.body) {
        switch (inst.op) {
          case OpClass::FpFma:
          case OpClass::IntMad:
            EXPECT_EQ(inst.regReads, 3);
            EXPECT_EQ(inst.regWrites, 1);
            break;
          case OpClass::Branch:
            EXPECT_EQ(inst.regWrites, 0);
            break;
          default:
            break;
        }
    }
}

TEST(WorkloadDeath, EmptyMixRejected)
{
    KernelDescriptor k;
    k.name = "broken";
    EXPECT_EXIT(k.totalMixWeight(), testing::ExitedWithCode(1),
                "empty instruction mix");
}

TEST(Workload, MixFractions)
{
    auto k = makeKernel("fractions",
                        {{OpClass::IntAdd, 3}, {OpClass::FpAdd, 1}});
    EXPECT_DOUBLE_EQ(k.mixFraction(OpClass::IntAdd), 0.75);
    EXPECT_DOUBLE_EQ(k.mixFraction(OpClass::FpAdd), 0.25);
    EXPECT_DOUBLE_EQ(k.mixFraction(OpClass::Tensor), 0.0);
}

TEST(Workload, SeedDerivedFromName)
{
    auto a = makeKernel("alpha", {{OpClass::IntAdd, 1}});
    auto b = makeKernel("beta", {{OpClass::IntAdd, 1}});
    EXPECT_NE(a.seed, b.seed);
    auto a2 = makeKernel("alpha", {{OpClass::IntAdd, 1}});
    EXPECT_EQ(a.seed, a2.seed);
}
