#include <gtest/gtest.h>

#include "mapper/mismatch_mapper.hpp"
#include "seq/alphabet.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

/// True when `hits` holds a forward placement at `pos` with exactly
/// `mismatches` mismatches.
bool has_forward_hit(const std::vector<mapper::Hit>& hits, std::uint64_t pos,
                     int mismatches) {
  for (const auto& h : hits) {
    if (h.pos == pos && !h.reverse && h.mismatches == mismatches) return true;
  }
  return false;
}

TEST(MapperUnit, MismatchCountingAcrossPackedWords) {
  std::string genome;
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    genome.push_back(seq::code_to_base(static_cast<std::uint8_t>(rng.below(4))));
  }
  const mapper::MismatchMapper m(genome, 12);
  // Exact windows, aligned and unaligned to the 32-base words: zero
  // mismatches.
  for (std::size_t pos : {0ul, 17ul, 63ul, 64ul, 65ul, 150ul}) {
    const std::string window = genome.substr(pos, 50);
    EXPECT_TRUE(has_forward_hit(m.map_all(window, 0), pos, 0)) << pos;
  }
  // Mutate three bases, both ends and the last base of the first word;
  // the count must be exactly 3.
  std::string window = genome.substr(40, 50);
  for (std::size_t i : {0ul, 31ul, 49ul}) {
    window[i] = seq::complement_base(window[i]);
  }
  EXPECT_TRUE(has_forward_hit(m.map_all(window, 3), 40, 3));
  // Over the cap: the placement is dropped.
  for (const int cap : {0, 2}) {
    for (const auto& h : m.map_all(window, cap)) {
      EXPECT_FALSE(h.pos == 40 && !h.reverse) << "cap " << cap;
    }
  }
}

class MapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(42);
    sim::GenomeSpec spec;
    spec.length = 30000;
    genome_ = sim::simulate_genome(spec, rng).sequence;
  }
  std::string genome_;
};

TEST_F(MapperTest, ExactReadsMapUniquely) {
  mapper::MismatchMapper m(genome_, 10);
  util::Rng rng(1);
  for (int t = 0; t < 200; ++t) {
    const std::size_t pos = rng.below(genome_.size() - 36);
    const std::string read = genome_.substr(pos, 36);
    const auto result = m.classify(read, 2);
    ASSERT_NE(result.cls, mapper::MapClass::kUnmapped);
    if (result.cls == mapper::MapClass::kUnique) {
      EXPECT_EQ(result.best.pos, pos);
      EXPECT_FALSE(result.best.reverse);
      EXPECT_EQ(result.best.mismatches, 0);
    }
  }
}

TEST_F(MapperTest, ReverseStrandReadsMap) {
  mapper::MismatchMapper m(genome_, 10);
  const std::size_t pos = 1234;
  const std::string read =
      seq::reverse_complement(genome_.substr(pos, 40));
  const auto result = m.classify(read, 2);
  ASSERT_EQ(result.cls, mapper::MapClass::kUnique);
  EXPECT_TRUE(result.best.reverse);
  EXPECT_EQ(result.best.pos, pos);
}

TEST_F(MapperTest, MismatchesWithinBudgetMap) {
  mapper::MismatchMapper m(
      genome_, mapper::MismatchMapper::seed_length_for(36, 3));
  const std::size_t pos = 5000;
  std::string read = genome_.substr(pos, 36);
  read[2] = seq::complement_base(read[2]);
  read[20] = seq::complement_base(read[20]);
  read[33] = seq::complement_base(read[33]);
  const auto result = m.classify(read, 3);
  ASSERT_EQ(result.cls, mapper::MapClass::kUnique);
  EXPECT_EQ(result.best.pos, pos);
  EXPECT_EQ(result.best.mismatches, 3);
  // Beyond budget: unmapped.
  read[10] = seq::complement_base(read[10]);
  EXPECT_EQ(m.classify(read, 3).cls, mapper::MapClass::kUnmapped);
}

TEST_F(MapperTest, RepeatReadsAreAmbiguous) {
  // Plant an exact duplicate region.
  std::string genome = genome_;
  genome.replace(20000, 500, genome.substr(3000, 500));
  mapper::MismatchMapper m(genome, 12);
  const std::string read = genome.substr(3100, 36);
  EXPECT_EQ(m.classify(read, 2).cls, mapper::MapClass::kAmbiguous);
}

TEST_F(MapperTest, MapReadSetStats) {
  util::Rng rng(7);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.num_reads = 500;
  const auto simulated = sim::simulate_reads(genome_, model, cfg, rng);
  mapper::MismatchMapper m(genome_, 9);
  const auto stats = mapper::map_read_set(m, simulated.reads, 5);
  EXPECT_EQ(stats.total, 500u);
  // Nearly all low-error reads map, overwhelmingly uniquely.
  EXPECT_GT(static_cast<double>(stats.unique) / 500.0, 0.9);
  EXPECT_LT(stats.unmapped, 25u);
}

TEST_F(MapperTest, ErrorModelEstimationRecoversRampShape) {
  util::Rng rng(8);
  const auto model = sim::ErrorModel::illumina(36, 0.02);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 25.0;
  const auto simulated = sim::simulate_reads(genome_, model, cfg, rng);
  mapper::MismatchMapper m(genome_, 9);
  const auto estimated =
      mapper::estimate_error_model(m, genome_, simulated.reads, 5);
  ASSERT_EQ(estimated.read_length(), 36u);
  // Average rate near the simulated truth, and ramp shape preserved.
  EXPECT_NEAR(estimated.average_error_rate(), 0.02, 0.008);
  double head = 0.0, tail = 0.0;
  for (int a = 0; a < 4; ++a) {
    head += estimated.error_prob(1, static_cast<std::uint8_t>(a)) / 4;
    tail += estimated.error_prob(34, static_cast<std::uint8_t>(a)) / 4;
  }
  EXPECT_GT(tail, head * 1.5);
}

TEST(MapperUnit, SeedLengthFor) {
  EXPECT_EQ(mapper::MismatchMapper::seed_length_for(36, 5), 6);
  EXPECT_EQ(mapper::MismatchMapper::seed_length_for(101, 10), 9);
}

}  // namespace
