//===- ArchTest.cpp - platform parameters and description files ------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "arch/ArchParams.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

TEST(ArchParamsTest, Table3PresetsMatchPaper) {
  ArchParams I6700 = intelI7_6700();
  EXPECT_EQ(I6700.L1.SizeBytes, 32 * 1024);
  EXPECT_EQ(I6700.L1.Ways, 8);
  EXPECT_EQ(I6700.L2.SizeBytes, 256 * 1024);
  EXPECT_EQ(I6700.L2.Ways, 8);
  EXPECT_EQ(I6700.NCores, 4);
  EXPECT_EQ(I6700.NThreadsPerCore, 2);
  EXPECT_EQ(I6700.totalThreads(), 8);

  ArchParams I5930 = intelI7_5930K();
  EXPECT_EQ(I5930.NCores, 6);
  EXPECT_EQ(I5930.totalThreads(), 12);
  EXPECT_EQ(I5930.L1.SizeBytes, I6700.L1.SizeBytes);

  ArchParams A15 = armCortexA15();
  EXPECT_EQ(A15.L1.Ways, 2);
  EXPECT_EQ(A15.L2.SizeBytes, 512 * 1024);
  EXPECT_EQ(A15.L2.Ways, 16);
  EXPECT_EQ(A15.L3.SizeBytes, 0) << "the A15 has no L3";
  EXPECT_TRUE(A15.SharedL2);
  EXPECT_FALSE(A15.HasNonTemporalStores);
  EXPECT_EQ(A15.NThreadsPerCore, 1);
}

TEST(ArchParamsTest, SetCounts) {
  // 32KB / (8 ways * 64B) = 64 sets.
  EXPECT_EQ(intelI7_6700().L1.numSets(), 64);
  EXPECT_EQ(intelI7_6700().L2.numSets(), 512);
}

TEST(ArchParamsTest, HostDetectionProducesSaneValues) {
  ArchParams Host = detectHost();
  EXPECT_GT(Host.L1.SizeBytes, 0);
  EXPECT_GT(Host.L2.SizeBytes, Host.L1.SizeBytes);
  EXPECT_GT(Host.NCores, 0);
  EXPECT_GT(Host.L1.Ways, 0);
  EXPECT_EQ(Host.L1.LineBytes % 32, 0);
}

TEST(ArchParamsTest, DescribeMentionsKeyFacts) {
  std::string Text = describe(armCortexA15());
  EXPECT_NE(Text.find("no L3"), std::string::npos);
  EXPECT_NE(Text.find("shared"), std::string::npos);
  EXPECT_NE(Text.find("NT stores no"), std::string::npos);
}

TEST(ArchFileTest, RoundTripAllPresets) {
  // Plus one platform that whole KiB and six significant digits cannot
  // describe: the serve dedup key renders platforms through this text.
  ArchParams Odd = intelI7_6700();
  Odd.L1.SizeBytes = 33791;
  Odd.A2 = 1.234567891;
  for (const ArchParams &Arch :
       {intelI7_6700(), intelI7_5930K(), armCortexA15(), Odd}) {
    auto Parsed = parseArchParams(archParamsToText(Arch));
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError();
    EXPECT_EQ(Parsed->Name, Arch.Name);
    EXPECT_EQ(Parsed->L1.SizeBytes, Arch.L1.SizeBytes);
    EXPECT_EQ(Parsed->L2.SizeBytes, Arch.L2.SizeBytes);
    EXPECT_EQ(Parsed->A2, Arch.A2);
    EXPECT_EQ(Parsed->L2.Ways, Arch.L2.Ways);
    EXPECT_EQ(Parsed->L3.SizeBytes, Arch.L3.SizeBytes);
    EXPECT_EQ(Parsed->NCores, Arch.NCores);
    EXPECT_EQ(Parsed->VectorWidth, Arch.VectorWidth);
    EXPECT_EQ(Parsed->HasNonTemporalStores, Arch.HasNonTemporalStores);
    EXPECT_EQ(Parsed->SharedL2, Arch.SharedL2);
    EXPECT_EQ(Parsed->L2PrefetchDegree, Arch.L2PrefetchDegree);
    EXPECT_DOUBLE_EQ(Parsed->A3, Arch.A3);
  }
}

TEST(ArchFileTest, ParsesSizesAndComments) {
  auto Parsed = parseArchParams(
      "# my machine\n"
      "name = box\n"
      "l1.size = 48K   # per core\n"
      "l2.size = 1M\n"
      "cores = 16\n");
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError();
  EXPECT_EQ(Parsed->L1.SizeBytes, 48 * 1024);
  EXPECT_EQ(Parsed->L2.SizeBytes, 1024 * 1024);
  EXPECT_EQ(Parsed->NCores, 16);
  // Unset keys keep defaults.
  EXPECT_EQ(Parsed->L1.Ways, 8);
}

TEST(ArchFileTest, RejectsUnknownKeysAndBadValues) {
  auto R1 = parseArchParams("l1.sise = 32K\n");
  EXPECT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.getError().find("unknown key"), std::string::npos);

  auto R2 = parseArchParams("cores = banana\n");
  EXPECT_FALSE(static_cast<bool>(R2));

  auto R3 = parseArchParams("l1.size = 0\nl2.size = 0\n");
  EXPECT_FALSE(static_cast<bool>(R3));

  auto R4 = parseArchParams("just some text\n");
  EXPECT_FALSE(static_cast<bool>(R4));
  EXPECT_NE(R4.getError().find("line 1"), std::string::npos);
}

// Geometries the cache models cannot divide into sets of whole lines are
// rejected by the parser instead of reaching the models' asserts (the
// text can arrive over the ltp-serve socket as arch_text).
TEST(ArchFileTest, RejectsDegenerateCacheGeometry) {
  auto TinyL1 = parseArchParams("l1.size = 1\n");
  EXPECT_FALSE(static_cast<bool>(TinyL1));
  EXPECT_NE(TinyL1.getError().find("l1.size"), std::string::npos);

  auto ShortLine = parseArchParams("l1.line = 2\n");
  EXPECT_FALSE(static_cast<bool>(ShortLine));
  EXPECT_NE(ShortLine.getError().find("l1.line"), std::string::npos);

  auto ShortL2Line = parseArchParams("l2.line = 4\n");
  EXPECT_FALSE(static_cast<bool>(ShortL2Line));
  EXPECT_NE(ShortL2Line.getError().find("l2.line"), std::string::npos);

  // One byte short of one set of 16 ways x 64-byte lines.
  auto TinyL2 = parseArchParams("l2.ways = 16\nl2.size = 1023\n");
  EXPECT_FALSE(static_cast<bool>(TinyL2));
  EXPECT_NE(TinyL2.getError().find("l2.size"), std::string::npos);

  // Exactly one set is the smallest accepted geometry.
  auto OneSet = parseArchParams("l1.ways = 2\nl1.line = 8\nl1.size = 16\n");
  ASSERT_TRUE(static_cast<bool>(OneSet)) << OneSet.getError();
  EXPECT_EQ(OneSet->L1.numSets(), 1);
}

TEST(ArchFileTest, LoadReportsMissingFile) {
  auto R = loadArchParams("/nonexistent/arch.conf");
  EXPECT_FALSE(static_cast<bool>(R));
}

} // namespace
