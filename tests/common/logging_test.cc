#include "src/common/logging.h"

#include <gtest/gtest.h>

namespace skymr {
namespace {

TEST(LoggingTest, CheckPassesThrough) {
  SKYMR_CHECK(1 + 1 == 2) << "never printed";
  SUCCEED();
}

TEST(LoggingTest, CheckFailureAborts) {
  // The failure is one line that starts with the severity tag and the
  // check's file:line.
  EXPECT_DEATH({ SKYMR_CHECK(false) << "boom"; },
               "(^|\n)\\[F logging_test\\.cc:[0-9]+\\] Check failed: "
               "false boom\n");
}

}  // namespace
}  // namespace skymr
