#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/thread_annotations.hpp"

namespace gs {
namespace {

using Clock = std::chrono::steady_clock;

TEST(CondVar, WaitUntilReturnsFalseAtTheDeadline) {
  Mutex mu;
  CondVar cv;
  const auto deadline = Clock::now() + std::chrono::milliseconds(5);
  MutexLock lock(mu);
  bool woken = true;
  // Spurious wake-ups return true; only the deadline ends the loop.
  while (woken) woken = cv.wait_until(mu, deadline);
  EXPECT_GE(Clock::now(), deadline);
}

TEST(CondVar, WaitUntilReturnsTrueWhenNotifiedBeforeTheDeadline) {
  Mutex mu;
  CondVar cv;
  bool waiting = false;  // guarded by mu
  bool ready = false;    // guarded by mu
  bool woken = false;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  std::thread notifier([&] {
    // Notify only once the waiter is inside wait_until: it holds mu from
    // setting `waiting` until the wait releases it.
    for (;;) {
      MutexLock lock(mu);
      if (waiting) {
        ready = true;
        cv.notify_one();
        return;
      }
    }
  });
  {
    MutexLock lock(mu);
    waiting = true;
    while (!ready) {
      woken = cv.wait_until(mu, deadline);
      if (!woken) break;
    }
  }
  notifier.join();
  EXPECT_TRUE(woken);
  EXPECT_LT(Clock::now(), deadline);
}

}  // namespace
}  // namespace gs
