// TCB_DCHECK as Release builds compile it: this file forces DCHECKs off
// whatever the build type, so every preset checks the disabled expansion.
// (dcheck_enabled_test.cpp forces the other half.)
#undef TCB_ENABLE_DCHECKS
#include "util/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tcb {
namespace {

TEST(DcheckDisabledTest, ConditionAndMessageAreNeverEvaluated) {
  int evaluations = 0;
  const auto counted = [&](bool value) {
    ++evaluations;
    return value;
  };
  const auto message = [&] {
    ++evaluations;
    return std::string("never formatted");
  };
  TCB_DCHECK(counted(false), message());
  TCB_DCHECK(counted(true), message());
  EXPECT_EQ(evaluations, 0);
}

}  // namespace
}  // namespace tcb
