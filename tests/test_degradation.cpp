// Graceful degradation through the robust design pipeline: the throwing
// entry points are value-or-throw wrappers over it (same design, same
// report), byte goldens pin the clean output, every ladder rung
// produces a usable design with an honest DegradationReport, and
// exhaustion yields a structured DesignError instead of a crash.

#include <string>

#include <gtest/gtest.h>

#include "chip/topology_builder.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "common/runledger.hpp"
#include "core/hierarchical.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"
#include "multiplex/tdm.hpp"
#include "noise/crosstalk_data.hpp"

namespace youtiao {
namespace {

class DegradationTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::reset(); }

    static ChipTopology
    grid(std::size_t rows, std::size_t cols)
    {
        return makeTopology(TopologyFamily::SquareGrid, rows, cols);
    }

    static ChipCharacterization
    characterize(const ChipTopology &chip, std::uint64_t seed = 7)
    {
        Prng prng(seed);
        return characterizeChip(chip, prng);
    }
};

TEST_F(DegradationTest, CleanRobustRunMatchesThrowingPathBitForBit)
{
    const ChipTopology chip = grid(5, 5);
    const ChipCharacterization data = characterize(chip);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesigner designer(config);

    const YoutiaoDesign plain = designer.design(chip, data);
    auto robust = designer.designRobust(chip, data);
    ASSERT_TRUE(robust.hasValue());
    EXPECT_TRUE(robust.value().degradation.empty());
    EXPECT_EQ(designToString(plain), designToString(robust.value()));
}

TEST_F(DegradationTest, CleanMeasurementRobustRunMatchesThrowingPath)
{
    // Also across the partitioned regime (36 > threshold 24), so the
    // generative partition's PRNG consumption is covered too.
    const ChipTopology chip = grid(6, 6);
    const ChipCharacterization data = characterize(chip, 11);
    const YoutiaoDesigner designer;
    const YoutiaoDesign plain = designer.designFromMeasurements(chip, data);
    auto robust = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(robust.hasValue());
    EXPECT_TRUE(robust.value().degradation.empty());
    EXPECT_EQ(designToString(plain), designToString(robust.value()));
}

TEST_F(DegradationTest, AllocationFaultWalksTheCapacityLadder)
{
    const ChipTopology chip = grid(5, 5);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;

    fault::configure("freq.allocate:0.5:42");
    fault::enable();
    auto first = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(first.hasValue());

    fault::reset();
    fault::configure("freq.allocate:0.5:42");
    fault::enable();
    auto second = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(second.hasValue());

    // Same spec + seed => identical fault pattern => identical report
    // and identical degraded design.
    EXPECT_EQ(first.value().degradation.summary(),
              second.value().degradation.summary());
    EXPECT_EQ(designToString(first.value()),
              designToString(second.value()));
    // The 0.5 rate must have cost at least one attempt somewhere in the
    // budget; when it did, the capacity shrank and the report says so.
    if (first.value().degradation.allocationAttempts > 1) {
        EXPECT_GT(first.value().degradation.fdmCapacityUsed, 0u);
        EXPECT_LT(first.value().degradation.fdmCapacityUsed,
                  designer.config().fdm.lineCapacity);
        EXPECT_FALSE(first.value().degradation.notes.empty());
        EXPECT_FALSE(first.value().degradation.empty());
    }
}

TEST_F(DegradationTest, AllocationBudgetExhaustionIsAStructuredError)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("freq.allocate:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().stage, DesignStage::FrequencyAllocation);
    const std::string text = result.error().toString();
    EXPECT_NE(text.find("frequency_allocation"), std::string::npos);
    EXPECT_NE(text.find("attempts="), std::string::npos);
}

TEST_F(DegradationTest, PartitionFaultFallsBackToSingleRegion)
{
    const ChipTopology chip = grid(6, 6); // above the partition threshold
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.partition:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    EXPECT_EQ(result.value().partition.regions.size(), 1u);
    EXPECT_FALSE(result.value().degradation.notes.empty());
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, TdmFaultFallsBackToDedicatedZLines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.tdm_group:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    for (const TdmGroup &group : result.value().zPlan.groups) {
        EXPECT_EQ(group.fanout, 1u);
        EXPECT_EQ(group.devices.size(), 1u);
    }
    EXPECT_TRUE(allGatesRealizable(chip, result.value().zPlan));
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, DemuxChannelFaultsStrandDevicesOntoDedicatedLines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("tdm.demux_channel:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    const YoutiaoDesign &design = result.value();
    EXPECT_GT(design.degradation.demuxFallbackDevices, 0u);
    for (const TdmGroup &group : design.zPlan.groups)
        EXPECT_EQ(group.fanout == 1,
                  group.devices.size() == 1)
            << "fanout " << group.fanout << " devices "
            << group.devices.size();
    // groupOfDevice stays consistent after the rewiring.
    for (std::size_t g = 0; g < design.zPlan.groups.size(); ++g)
        for (std::size_t d : design.zPlan.groups[g].devices)
            EXPECT_EQ(design.zPlan.groupOfDevice[d], g);
    EXPECT_TRUE(allGatesRealizable(chip, design.zPlan));
    // The broken channels cost real hardware.
    EXPECT_GT(design.degradation.costDeltaUsd, 0.0);
}

TEST_F(DegradationTest, ReadoutFaultFallsBackToDedicatedFeedlines)
{
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.readout:1.0");
    fault::enable();
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(result.hasValue());
    for (const auto &line : result.value().readoutPlan.lines)
        EXPECT_EQ(line.size(), 1u);
    EXPECT_FALSE(result.value().degradation.empty());
}

TEST_F(DegradationTest, MismatchedCharacterizationIsAValidationError)
{
    const ChipTopology chip = grid(3, 3);
    const ChipCharacterization wrong; // empty matrices
    const YoutiaoDesigner designer;
    auto result = designer.designFromMeasurementsRobust(chip, wrong);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().stage, DesignStage::Validation);
}

TEST_F(DegradationTest, ThrowingEntryPointShipsTheLaddersDesign)
{
    // The throwing entry points wrap the robust ones: an armed fault the
    // ladder rescues comes back as the same degraded design, notes and
    // all, instead of being ignored.
    const ChipTopology chip = grid(4, 4);
    const ChipCharacterization data = characterize(chip);
    const YoutiaoDesigner designer;
    fault::configure("design.tdm_group:1:1");
    fault::enable();
    auto robust = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_TRUE(robust.hasValue());
    fault::reset();
    fault::configure("design.tdm_group:1:1");
    fault::enable();
    const YoutiaoDesign plain = designer.designFromMeasurements(chip, data);
    EXPECT_FALSE(plain.degradation.empty());
    EXPECT_EQ(plain.degradation.notes, robust.value().degradation.notes);
    EXPECT_EQ(plain.degradation.summary(),
              robust.value().degradation.summary());
    EXPECT_EQ(designToString(plain), designToString(robust.value()));
}

TEST_F(DegradationTest, ZeroLineCapacityIsAnErrorOnBothSurfaces)
{
    // A configured capacity of 0 is a bad input, not a ladder rung: the
    // robust path must not quietly design at capacity 1.
    const ChipTopology chip = grid(3, 3);
    const ChipCharacterization data = characterize(chip);
    YoutiaoConfig config;
    config.fdm.lineCapacity = 0;
    const YoutiaoDesigner designer(config);
    auto result = designer.designFromMeasurementsRobust(chip, data);
    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().stage, DesignStage::FrequencyAllocation);
    EXPECT_THROW((void)designer.designFromMeasurements(chip, data),
                 ConfigError);
}

/** Occurrences of ConfigError's what() prefix in @p text. */
std::size_t
configPrefixCount(const std::string &text)
{
    const std::string prefix = "youtiao config error: ";
    std::size_t count = 0;
    for (std::size_t at = text.find(prefix); at != std::string::npos;
         at = text.find(prefix, at + prefix.size()))
        ++count;
    return count;
}

TEST_F(DegradationTest, ThrownDesignErrorsCarryOneConfigPrefix)
{
    // The robust path keeps the bare message of a ConfigError it
    // catches; the throwing wrapper adds the prefix exactly once.
    const ChipTopology chip = grid(3, 3);
    try {
        (void)YoutiaoDesigner().designWithModels(chip, CrosstalkModel{},
                                                 CrosstalkModel{});
        FAIL() << "untrained models did not throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(configPrefixCount(e.what()), 1u) << e.what();
        EXPECT_EQ(std::string(e.what()).rfind("youtiao config error: ", 0),
                  0u)
            << e.what();
    }
    YoutiaoConfig config;
    config.fdm.lineCapacity = 0;
    try {
        (void)YoutiaoDesigner(config).designFromMeasurements(
            chip, characterize(chip));
        FAIL() << "zero line capacity did not throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(configPrefixCount(e.what()), 1u) << e.what();
    }
    try {
        (void)HierarchicalDesigner().designFromMeasurements(
            chip, characterize(grid(2, 2)));
        FAIL() << "mismatched characterization did not throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(configPrefixCount(e.what()), 1u) << e.what();
    }
}

// Design byte goldens: FNV-1a of the text codec of a clean design, one
// per entry-point family. The values pin the exact output of the stage
// sequence (PRNG consumption, grouping, allocation, partition, seam
// stitch); any change to them is a behaviour change, not a refactor.

TEST_F(DegradationTest, DesignByteGoldenFlatFit)
{
    const ChipTopology chip = grid(5, 5);
    const ChipCharacterization data = characterize(chip);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 10;
    const YoutiaoDesign design = YoutiaoDesigner(config).design(chip, data);
    EXPECT_EQ(runledger::fnv1aHex(designToString(design)),
              "f7403dd404e5d6ed");
}

TEST_F(DegradationTest, DesignByteGoldenFlatMeasurementsPartitioned)
{
    // 36 qubits > the partition threshold (24): the generative
    // partition runs.
    const ChipTopology chip = grid(6, 6);
    const ChipCharacterization data = characterize(chip, 11);
    const YoutiaoDesign design =
        YoutiaoDesigner().designFromMeasurements(chip, data);
    ASSERT_GT(design.partition.regions.size(), 1u);
    EXPECT_EQ(runledger::fnv1aHex(designToString(design)),
              "4293b2e283dff885");
}

TEST_F(DegradationTest, DesignByteGoldenHierarchicalSynthesized)
{
    const ChipTopology chip = grid(16, 16);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 64;
    const HierarchicalDesign design =
        HierarchicalDesigner({}, hier).designSynthesized(chip);
    ASSERT_GT(design.tiles.size(), 1u);
    EXPECT_EQ(runledger::fnv1aHex(designToString(design.merged)),
              "e57560f49b4e19bf");
}

TEST_F(DegradationTest, DegradationSummaryOnlyPrintsWhenNonEmpty)
{
    DegradationReport report;
    EXPECT_TRUE(report.empty());
    report.demuxFallbackDevices = 2;
    report.costDeltaUsd = 123.456;
    EXPECT_FALSE(report.empty());
    const std::string text = report.summary();
    EXPECT_NE(text.find("-- degradation --"), std::string::npos);
    EXPECT_NE(text.find("demux fallback devices 2"), std::string::npos);
    EXPECT_NE(text.find("+123.46 USD"), std::string::npos);
}

} // namespace
} // namespace youtiao
