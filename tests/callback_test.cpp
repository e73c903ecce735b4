// Tests for hero::Callback, the move-only small-buffer callable the event
// engine stores instead of std::function.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/callback.hpp"

namespace hero {
namespace {

TEST(Callback, EmptyByDefaultAndFromNull) {
  Callback<void()> a;
  Callback<void()> b = nullptr;
  void (*null_fn)() = nullptr;
  Callback<void()> c = null_fn;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(c);
}

TEST(Callback, SmallCaptureIsStoredInline) {
  int hits = 0;
  std::uint64_t id = 7;
  Callback<void(int)> cb = [&hits, id](int by) {
    hits += by + static_cast<int>(id);
  };
  ASSERT_TRUE(cb);
  EXPECT_TRUE(cb.is_inline());
  cb(1);
  EXPECT_EQ(hits, 8);
}

TEST(Callback, InlineLimitIsKInlineBytes) {
  std::array<char, Callback<void()>::kInlineBytes> bytes{};
  bytes.back() = 3;
  int seen = 0;
  Callback<void()> cb = [bytes, p = &seen] { *p = bytes.back(); };
  // The capture is the array plus a pointer, so one pointer over the limit.
  EXPECT_FALSE(cb.is_inline());
  std::array<char, Callback<void()>::kInlineBytes - sizeof(int*)> fits{};
  fits.back() = 5;
  Callback<void()> small = [fits, p = &seen] { *p = fits.back(); };
  EXPECT_TRUE(small.is_inline());
  cb();
  EXPECT_EQ(seen, 3);
  small();
  EXPECT_EQ(seen, 5);
}

TEST(Callback, LargeCaptureGoesToTheHeapAndSurvivesMoves) {
  std::array<double, 16> big{};
  big[15] = 2.5;
  Callback<double()> cb = [big] { return big[15]; };
  EXPECT_FALSE(cb.is_inline());
  Callback<double()> moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(moved);
  EXPECT_DOUBLE_EQ(moved(), 2.5);
}

TEST(Callback, AcceptsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(41);
  Callback<int()> cb = [p = std::move(owned)] { return *p + 1; };
  EXPECT_TRUE(cb.is_inline());
  Callback<int()> moved = std::move(cb);
  EXPECT_EQ(moved(), 42);
}

TEST(Callback, MutableTargetKeepsStateAcrossCalls) {
  Callback<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
  Callback<int()> moved = std::move(counter);
  EXPECT_EQ(moved(), 3);
}

TEST(Callback, EachCaptureIsDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  std::array<char, 64> pad{};
  {
    Callback<void()> small = [token] { ++*token; };
    Callback<void()> large = [token, pad] { *token += pad[0] + 1; };
    EXPECT_TRUE(small.is_inline());
    EXPECT_FALSE(large.is_inline());
    EXPECT_EQ(token.use_count(), 3);
    // Moves hand the capture over; they never copy or drop it.
    Callback<void()> small2 = std::move(small);
    Callback<void()> large2 = std::move(large);
    Callback<void()> small3;
    small3 = std::move(small2);
    EXPECT_EQ(token.use_count(), 3);
    small3();
    large2();
    EXPECT_EQ(*token, 2);
    small3 = nullptr;
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, MoveAssignmentOverALiveCallbackReleasesTheOldTarget) {
  auto old_token = std::make_shared<int>(0);
  auto new_token = std::make_shared<int>(0);
  std::array<char, 64> pad{};
  Callback<int()> target = [old_token] { return 1; };
  Callback<int()> source = [new_token, pad] { return 2 + pad[0]; };
  EXPECT_EQ(old_token.use_count(), 2);
  target = std::move(source);
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(new_token.use_count(), 2);
  EXPECT_FALSE(source);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(target(), 2);

  // Heap over inline, then inline over heap.
  Callback<int()> inline_cb = [old_token] { return 3; };
  inline_cb = std::move(target);
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(inline_cb(), 2);
  Callback<int()> heap_cb = [new_token, pad] { return 4 + pad[0]; };
  EXPECT_EQ(new_token.use_count(), 3);
  heap_cb = Callback<int()>([old_token] { return 5; });
  EXPECT_EQ(new_token.use_count(), 2);
  EXPECT_EQ(heap_cb(), 5);

  // Self-move-assignment leaves the target intact.
  Callback<int()>& alias = heap_cb;
  heap_cb = std::move(alias);
  EXPECT_EQ(heap_cb(), 5);
  EXPECT_EQ(old_token.use_count(), 2);
}

TEST(Callback, TargetMayMoveItsCaptureOutWhileRunning) {
  // The simulator's series closure hands its owned state to the next
  // pending closure while it runs; the capture must end up owned once.
  auto token = std::make_shared<int>(0);
  Callback<void()> next;
  Callback<void()> cb = [t = token, &next]() mutable {
    next = [t = std::move(t)] { ++*t; };
  };
  EXPECT_EQ(token.use_count(), 2);
  cb();
  cb = nullptr;
  EXPECT_EQ(token.use_count(), 2);
  next();
  EXPECT_EQ(*token, 1);
  next = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace hero
