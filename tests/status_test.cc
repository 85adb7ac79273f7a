#include "common/status.h"

#include <gtest/gtest.h>

namespace sqp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table foo");
  EXPECT_EQ(s.ToString(), "NotFound: table foo");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  // Overwriting with an error also keeps GCC 12's -Wmaybe-uninitialized
  // from flagging the never-active Status alternative in ~Result().
  r = Status::Internal("replaced");
  EXPECT_FALSE(r.ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "boom");
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(*r);
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

Status FailsThenPropagates(bool fail) {
  SQP_RETURN_IF_ERROR(fail ? Status::Cancelled("stop") : Status::OK());
  return Status::AlreadyExists("reached");
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThenPropagates(true).code(), StatusCode::kCancelled);
  EXPECT_EQ(FailsThenPropagates(false).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace sqp
