// Golden-figure regression test for the streaming engine: renders every
// StreamingStudy output for the same fixed campus as golden_figures_test.cc
// (60 students, seed 2020; default 32 MiB budget, sketch seed 2020) and
// diffs it against the checked-in fixture. The differential suite only holds
// streaming within tolerances of batch, so a drift in the sketched
// accumulators (HLL registers, reservoir priorities, count-min rows) would
// pass it unseen; this pins every estimate to the bit.
//
// To regenerate after an intended change (and review the diff in git):
//
//   LOCKDOWN_REGEN_GOLDEN=1 ./tests/core_test --gtest_filter='GoldenFigures.*'
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.h"
#include "figure_render.h"
#include "stream/streaming_study.h"
#include "world/catalog.h"

namespace lockdown::core {
namespace {

constexpr int kStudents = 60;
constexpr std::uint64_t kSeed = 2020;

TEST(GoldenFigures, StreamingMatchesCheckedInFixture) {
  const CollectionResult collection =
      MeasurementPipeline::Collect(StudyConfig::Small(kStudents, kSeed));
  stream::StreamingOptions options;
  options.sketch_seed = 2020;
  const stream::StreamingStudy study(collection.dataset,
                                     world::ServiceCatalog::Default(), options);
  const std::string path = std::string(LOCKDOWN_GOLDEN_DIR) + "/stream_s" +
                           std::to_string(kStudents) + "_seed" +
                           std::to_string(kSeed) + ".tsv";
  const std::string mismatch =
      testing::CompareWithGolden(testing::RenderFigures(collection, study), path);
  EXPECT_EQ(mismatch, "");
}

}  // namespace
}  // namespace lockdown::core
