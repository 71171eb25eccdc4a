/**
 * @file
 * Cooperative-cancellation tests (common/cancel.hpp): token semantics,
 * the structured DesignError surface of the robust entry points, the
 * cancellation-latency bound on a 1k-qubit hierarchical design, and the
 * clean-run identity -- an armed-but-untripped deadline must not change
 * a single output byte.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "chip/topology_builder.hpp"
#include "common/cancel.hpp"
#include "common/expected.hpp"
#include "core/hierarchical.hpp"
#include "core/serialization.hpp"
#include "core/youtiao.hpp"

namespace youtiao {
namespace {

/** Every test leaves the ambient token disarmed. */
struct CancelTest : ::testing::Test
{
    void SetUp() override { cancel::disarm(); }
    void TearDown() override { cancel::disarm(); }
};

TEST_F(CancelTest, PollIsNoOpWhenDisarmed)
{
    EXPECT_FALSE(cancel::armed());
    EXPECT_FALSE(cancel::tripped());
    EXPECT_NO_THROW(cancel::poll("test"));
}

TEST_F(CancelTest, RequestCancelTripsEveryLaterPoll)
{
    cancel::requestCancel("test");
    EXPECT_TRUE(cancel::armed());
    EXPECT_TRUE(cancel::tripped());
    try {
        cancel::poll("test.site");
        FAIL() << "poll() must throw after requestCancel()";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::Cancelled);
        EXPECT_EQ(e.where(), "test.site");
        EXPECT_NE(std::string(e.what()).find("test.site"),
                  std::string::npos);
    }
    // The trip latches: the next poll throws too.
    EXPECT_THROW(cancel::poll("again"), cancel::Cancelled);
    cancel::disarm();
    EXPECT_NO_THROW(cancel::poll("after.disarm"));
}

TEST_F(CancelTest, DeadlineTripsAfterExpiry)
{
    cancel::armDeadline(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // An armed poll reads the clock directly, so the first poll after
    // expiry must trip; the loop just keeps the assertion robust.
    bool threw = false;
    for (int i = 0; i < 256 && !threw; ++i) {
        try {
            cancel::poll("deadline.test");
        } catch (const cancel::Cancelled &e) {
            EXPECT_EQ(e.reason(), cancel::Reason::DeadlineExceeded);
            threw = true;
        }
    }
    EXPECT_TRUE(threw);
}

TEST_F(CancelTest, GenerousDeadlineNeverTrips)
{
    cancel::ScopedDeadline deadline(3600.0);
    for (int i = 0; i < 1024; ++i)
        EXPECT_NO_THROW(cancel::poll("generous"));
}

TEST_F(CancelTest, RobustDesignSurfacesStructuredCancellation)
{
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    // A pre-tripped token must come back as a DesignError with a
    // cancellation code -- not be swallowed by the degradation ladder
    // into a Failed retry.
    cancel::requestCancel("test");
    const Expected<YoutiaoDesign, DesignError> result =
        designer.designRobust(chip, data);
    ASSERT_FALSE(result.hasValue());
    EXPECT_TRUE(result.error().isCancellation());
    EXPECT_EQ(result.error().code, DesignErrorCode::Cancelled);
}

TEST_F(CancelTest, ThrowingDesignRethrowsTheCancellation)
{
    // The throwing entry points must surface a cooperative abort as
    // cancel::Cancelled with its reason -- never as a ConfigError, which
    // callers treat as a bad input.
    const ChipTopology chip = makeSquareGrid(4, 4);
    Prng prng(7);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    cancel::requestCancel("test");
    try {
        (void)designer.design(chip, data);
        FAIL() << "design() must throw under a tripped token";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::Cancelled);
        EXPECT_FALSE(e.where().empty());
    }
}

TEST_F(CancelTest, ThrowingHierarchicalDesignRethrowsTheDeadline)
{
    const ChipTopology chip = makeSquareGrid(16, 16);
    HierarchicalConfig hier;
    hier.tileSizeQubits = 64;
    const HierarchicalDesigner designer({}, hier);

    cancel::armDeadline(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    try {
        (void)designer.designSynthesized(chip);
        FAIL() << "designSynthesized() must throw past its deadline";
    } catch (const cancel::Cancelled &e) {
        EXPECT_EQ(e.reason(), cancel::Reason::DeadlineExceeded);
        EXPECT_FALSE(e.where().empty());
    }
}

TEST_F(CancelTest, HierarchicalCancellationIsPromptAndReportsProgress)
{
    // The satellite latency bound: a 1k-qubit hierarchical design under
    // a 50 ms deadline must abort within seconds (per-tile + inner-loop
    // polls), return a structured deadline error, and leave a valid
    // partial DegradationReport naming how far the fan-out got.
    const ChipTopology chip = makeSquareGrid(32, 32);
    YoutiaoConfig config;
    config.seed = 7;
    HierarchicalConfig hier;
    hier.tileSizeQubits = 64;
    const HierarchicalDesigner designer(config, hier);

    cancel::armDeadline(0.05);
    DegradationReport partial;
    const auto t0 = std::chrono::steady_clock::now();
    const Expected<HierarchicalDesign, DesignError> result =
        designer.designSynthesizedRobust(chip, 0.6, &partial);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    cancel::disarm();

    ASSERT_FALSE(result.hasValue());
    EXPECT_EQ(result.error().code, DesignErrorCode::DeadlineExceeded);
    // Way past the deadline but bounded: polls sit at every tile and
    // routing barrier, so the abort cannot take the full design time.
    EXPECT_LT(elapsed_s, 10.0);
    ASSERT_FALSE(partial.notes.empty());
    EXPECT_NE(partial.notes.back().find("cancelled after"),
              std::string::npos);
}

TEST_F(CancelTest, ArmedCleanRunIsByteIdentical)
{
    // Arming a deadline that never trips must not perturb the output:
    // the poll fast path is a load + branch, nothing else.
    const ChipTopology chip = makeSquareGrid(5, 5);
    Prng prng(11);
    const ChipCharacterization data = characterizeChip(chip, prng);
    YoutiaoConfig config;
    config.fit.forest.treeCount = 8;
    const YoutiaoDesigner designer(config);

    const YoutiaoDesign plain = designer.design(chip, data);
    std::ostringstream plain_text;
    saveDesign(plain_text, plain);

    std::ostringstream armed_text;
    {
        cancel::ScopedDeadline deadline(3600.0);
        const YoutiaoDesign armed = designer.design(chip, data);
        saveDesign(armed_text, armed);
    }
    EXPECT_EQ(plain_text.str(), armed_text.str());
}

} // namespace
} // namespace youtiao
