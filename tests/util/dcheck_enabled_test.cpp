// TCB_DCHECK as Debug and sanitizer builds compile it: this file forces
// DCHECKs on whatever the build type. (dcheck_disabled_test.cpp forces the
// other half.)
#ifndef TCB_ENABLE_DCHECKS
#define TCB_ENABLE_DCHECKS
#endif
#include "util/check.hpp"

#include <gtest/gtest.h>

#include <string>

namespace tcb {
namespace {

TEST(DcheckEnabledTest, FalseConditionThrowsCheckError) {
  EXPECT_THROW(TCB_DCHECK(1 + 1 == 3, "arithmetic"), CheckError);
}

TEST(DcheckEnabledTest, TrueConditionPassesAndIsEvaluatedOnce) {
  int evaluations = 0;
  EXPECT_NO_THROW(TCB_DCHECK(++evaluations == 1, "first evaluation"));
  EXPECT_EQ(evaluations, 1);
}

TEST(DcheckEnabledTest, MessageNamesTheCondition) {
  try {
    TCB_DCHECK(2 < 1, "ordering");
    FAIL() << "TCB_DCHECK did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("ordering"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace tcb
