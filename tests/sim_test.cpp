// Unit tests for the discrete-event kernel: event ordering, processes,
// conditions, channels, determinism.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/condition.h"
#include "sim/simulator.h"
#include "sim/time.h"

using namespace mg::sim;

TEST(SimTime, Conversions) {
  EXPECT_EQ(fromSeconds(1.0), kSecond);
  EXPECT_EQ(fromSeconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
  EXPECT_EQ(fromSeconds(0.0), 0);
  EXPECT_EQ(fromSeconds(2.5e-9), 3);  // rounds to nearest ns
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(30, [&] { order.push_back(3); });
  sim.scheduleAt(10, [&] { order.push_back(1); });
  sim.scheduleAt(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.scheduleAt(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.scheduleAt(100, [&] {
    sim.scheduleAfter(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.scheduleAt(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  sim.cancel(9999);  // must not throw
  sim.run();
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.scheduleAt(100, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(50, [] {}), mg::UsageError);
  EXPECT_THROW(sim.scheduleAfter(-1, [] {}), mg::UsageError);
}

TEST(Simulator, RunUntilStopsAndSetsNow) {
  Simulator sim;
  std::vector<int> ran;
  sim.scheduleAt(10, [&] { ran.push_back(1); });
  sim.scheduleAt(100, [&] { ran.push_back(2); });
  sim.runUntil(50);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(Process, DelayAdvancesTime) {
  Simulator sim;
  std::vector<SimTime> stamps;
  sim.spawn("p", [&] {
    stamps.push_back(sim.now());
    sim.delay(100);
    stamps.push_back(sim.now());
    sim.delay(kSecond);
    stamps.push_back(sim.now());
  });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 100, 100 + kSecond}));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back(std::string("a").append(std::to_string(i)));
      sim.delay(10);
    }
  });
  sim.spawn("b", [&] {
    sim.delay(5);
    for (int i = 0; i < 3; ++i) {
      log.push_back(std::string("b").append(std::to_string(i)));
      sim.delay(10);
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, SuspendAndWake) {
  Simulator sim;
  Process* sleeper = nullptr;
  SimTime woke_at = -1;
  sleeper = &sim.spawn("sleeper", [&] {
    sim.suspend();
    woke_at = sim.now();
  });
  sim.spawn("waker", [&] {
    sim.delay(500);
    sim.wake(*sleeper);
  });
  sim.run();
  EXPECT_EQ(woke_at, 500);
}

TEST(Process, SuspendForTimesOut) {
  Simulator sim;
  bool woken = true;
  sim.spawn("p", [&] { woken = sim.suspendFor(100); });
  sim.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Process, SuspendForWokenBeforeTimeout) {
  Simulator sim;
  Process* p = nullptr;
  bool woken = false;
  SimTime end = -1;
  p = &sim.spawn("p", [&] {
    woken = sim.suspendFor(kSecond);
    end = sim.now();
  });
  sim.spawn("w", [&] {
    sim.delay(10);
    sim.wake(*p);
  });
  sim.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(end, 10);
  // The cancelled timeout must not stretch the run: final time is the wake.
  EXPECT_EQ(sim.now(), 10);
}

TEST(Process, StaleTimeoutDoesNotFireOnLaterSuspend) {
  Simulator sim;
  Process* p = nullptr;
  std::vector<bool> results;
  p = &sim.spawn("p", [&] {
    results.push_back(sim.suspendFor(100));  // woken at t=10
    results.push_back(sim.suspendFor(1000));  // must time out at 1010, not 100
  });
  sim.spawn("w", [&] {
    sim.delay(10);
    sim.wake(*p);
  });
  sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
  EXPECT_EQ(sim.now(), 1010);
}

TEST(Process, WakeOnRunningProcessIsNoop) {
  Simulator sim;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    sim.wake(*p);  // self-wake while running: dropped
    sim.delay(10);
  });
  sim.run();
  EXPECT_EQ(sim.now(), 10);
}

TEST(Process, BlockingCallOutsideProcessThrows) {
  Simulator sim;
  EXPECT_THROW(sim.delay(10), mg::UsageError);
  EXPECT_THROW(sim.suspend(), mg::UsageError);
  EXPECT_FALSE(sim.inProcessContext());
}

TEST(Process, SpawnFromWithinProcess) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("parent", [&] {
    sim.delay(10);
    sim.spawn("child", [&] {
      log.push_back("child@" + std::to_string(sim.now()));
    });
    sim.delay(10);
    log.push_back("parent@" + std::to_string(sim.now()));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"child@10", "parent@20"}));
}

TEST(Process, ShutdownKillsSuspendedDaemons) {
  Simulator sim;
  bool unwound = false;
  sim.spawn("daemon", [&] {
    struct Flag {
      bool* f;
      ~Flag() { *f = true; }
    } flag{&unwound};
    sim.suspend();  // never woken
  });
  sim.run();
  EXPECT_EQ(sim.liveProcessCount(), 1);
  EXPECT_EQ(sim.suspendedProcessNames(), (std::vector<std::string>{"daemon"}));
  sim.shutdown();
  EXPECT_TRUE(unwound);
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Process, ExceptionInBodyDoesNotCrashKernel) {
  Simulator sim;
  sim.spawn("thrower", [&] {
    sim.delay(5);
    throw std::runtime_error("app bug");
  });
  SimTime end = sim.run();
  EXPECT_EQ(end, 5);
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

// ---- processes as fibers ---------------------------------------------------

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Never inlined or turned into a loop: each level keeps a 1 KiB frame live
// until the one below returns.
[[gnu::noinline]] int recurse(int depth, int limit) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == limit) return pad[0];
  return recurse(depth + 1, limit) + pad[0];
}

/// Appends its tag to a log when destroyed.
struct Tracer {
  std::vector<std::string>* log;
  const char* tag;
  ~Tracer() { log->push_back(tag); }
};

}  // namespace

TEST(ProcessDeathTest, StackOverflowFaultsAtTheGuardPage) {
  // A sanitizer's own SEGV handler reports the overflow and exits non-zero
  // instead of dying by the signal.
  auto died = [](int status) {
    if (kSanitized) return !testing::ExitedWithCode(0)(status);
    return testing::KilledBySignal(SIGSEGV)(status);
  };
  EXPECT_EXIT(
      {
        Simulator sim;
        // ~1.8 MiB of frames against a 1 MiB stack. The neighbour's stack is
        // mapped just below (mmap hands out addresses top-down), so without
        // the guard page the overflow would run on into it and return.
        sim.spawn("deep", [] {
          const volatile int sink = recurse(0, 1800);
          static_cast<void>(sink);
          std::exit(0);
        });
        sim.spawn("neighbour", [] {});
        sim.run();
        std::exit(0);
      },
      died, "");
}

TEST(ProcessDeathTest, SpawnReportsAStackMappingFailure) {
  if (kSanitized) GTEST_SKIP() << "sanitizers reserve their own address space up front";
  EXPECT_EXIT(
      {
        // Cap the address space a little above what is mapped now, so that
        // the fiber stacks run it out long before anything else does.
        rlimit lim{};
        getrlimit(RLIMIT_AS, &lim);
        std::size_t mapped_kb = 0;
        if (FILE* f = std::fopen("/proc/self/status", "r")) {
          char line[256];
          while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmSize: %zu kB", &mapped_kb) == 1) break;
          }
          std::fclose(f);
        }
        lim.rlim_cur = (mapped_kb + 64 * 1024) * 1024;
        if (mapped_kb == 0 || setrlimit(RLIMIT_AS, &lim) != 0) std::exit(3);
        Simulator sim;
        try {
          for (int i = 0; i < 1000; ++i) sim.spawn("p" + std::to_string(i), [] {});
        } catch (const mg::Error& e) {
          std::fprintf(stderr, "%s\n", e.what());
          std::exit(0);
        }
        std::exit(1);
      },
      testing::ExitedWithCode(0), "cannot map its 1024 KiB fiber stack \\+ guard page \\(mmap");
}

TEST(Process, KillUnwindsRaiiObjectsOnASuspendedStack) {
  Simulator sim;
  std::vector<std::string> log;
  bool resumed = false;
  auto& victim = sim.spawn("victim", [&] {
    Tracer outer{&log, "outer"};
    [&] {
      Tracer inner{&log, "inner"};
      sim.suspend();  // never woken
      resumed = true;
    }();
  });
  sim.run();
  ASSERT_FALSE(victim.finished());
  sim.killProcess(victim);
  EXPECT_FALSE(resumed);
  // Innermost first, exactly as an exception unwinds an ordinary stack.
  EXPECT_EQ(log, (std::vector<std::string>{"inner", "outer"}));
  EXPECT_EQ(sim.liveProcessCount(), 0);
  EXPECT_EQ(sim.metrics().counterValue("sim.process.kills"), 1);
}

TEST(Process, ProcessKillsASuspendedProcessMidBody) {
  // The kill switches from one fiber into another and back: the victim's
  // caller for that slice is the killer, not the kernel.
  Simulator sim;
  std::vector<std::string> log;
  auto& victim = sim.spawn("victim", [&] {
    Tracer t{&log, "victim unwound"};
    sim.delay(5);
    sim.suspend();  // never woken
  });
  const std::uint64_t victim_id = victim.id();
  sim.spawn("killer", [&] {
    Tracer t{&log, "killer done"};
    sim.delay(10);
    log.push_back("kill@" + std::to_string(sim.now()));
    sim.killProcessById(victim_id);
    log.push_back("back@" + std::to_string(sim.now()));
    sim.delay(10);  // the killer's own fiber still switches normally
    log.push_back("end@" + std::to_string(sim.now()));
  });
  EXPECT_EQ(sim.run(), 20);
  EXPECT_EQ(log, (std::vector<std::string>{"kill@10", "victim unwound", "back@10", "end@20",
                                           "killer done"}));
  EXPECT_TRUE(sim.processFinished(victim_id));
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Process, KillingAProcessThatNeverStartedIsANoOp) {
  Simulator sim;
  bool ran = false;
  auto& p = sim.spawn("unstarted", [&] { ran = true; });
  const std::uint64_t id = p.id();
  sim.killProcess(p);  // its first slice is still queued
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(sim.liveProcessCount(), 0);
  sim.run();  // the queued first slice finds it finished
  EXPECT_FALSE(ran);
  sim.killProcessById(id);  // and killing it again does nothing either
  EXPECT_EQ(sim.metrics().counterValue("sim.process.kills"), 1);
}

TEST(Process, EachProcessKeepsItsOwnHandledException) {
  // Two processes block inside their catch handlers, interleaved. Each must
  // resume with its own exception current, as it would on a thread.
  Simulator sim;
  std::vector<std::string> seen;
  for (const char* name : {"a", "b"}) {
    sim.spawn(name, [&sim, &seen, name] {
      try {
        throw std::runtime_error(name);
      } catch (const std::exception&) {
        sim.delay(name[0] == 'a' ? 5 : 10);  // the first to catch resumes first
        try {
          throw;
        } catch (const std::exception& again) {
          seen.push_back(again.what());
        }
      }
      EXPECT_EQ(std::current_exception(), nullptr);
      EXPECT_EQ(std::uncaught_exceptions(), 0);
    });
  }
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(std::current_exception(), nullptr);
}

TEST(Condition, NotifyOneWakesFifo) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> woken;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(std::string("w").append(std::to_string(i)), [&, i] {
      cond.wait();
      woken.push_back(i);
    });
  }
  sim.spawn("notifier", [&] {
    sim.delay(10);
    cond.notifyOne();
    sim.delay(10);
    cond.notifyOne();
    sim.delay(10);
    cond.notifyOne();
  });
  sim.run();
  EXPECT_EQ(woken, (std::vector<int>{0, 1, 2}));
}

TEST(Condition, NotifyAllWakesEveryone) {
  Simulator sim;
  Condition cond(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(std::string("w").append(std::to_string(i)), [&] {
      cond.wait();
      ++woken;
    });
  }
  sim.spawn("notifier", [&] {
    sim.delay(1);
    EXPECT_EQ(cond.waiterCount(), 5u);
    cond.notifyAll();
  });
  sim.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(Condition, WaitForTimeoutRemovesWaiter) {
  Simulator sim;
  Condition cond(sim);
  bool notified = true;
  sim.spawn("p", [&] { notified = cond.waitFor(50); });
  sim.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(cond.waiterCount(), 0u);
}

TEST(Channel, SendRecvTransfersInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn("consumer", [&] {
    for (int i = 0; i < 3; ++i) got.push_back(ch.recv());
  });
  sim.spawn("producer", [&] {
    for (int i = 1; i <= 3; ++i) {
      sim.delay(10);
      ch.send(i * 11);
    }
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{11, 22, 33}));
}

TEST(Channel, BoundedChannelBlocksSender) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  SimTime third_sent = -1;
  sim.spawn("producer", [&] {
    ch.send(1);
    ch.send(2);
    ch.send(3);  // blocks until consumer drains one
    third_sent = sim.now();
  });
  sim.spawn("consumer", [&] {
    sim.delay(100);
    EXPECT_EQ(ch.recv(), 1);
  });
  sim.run();
  EXPECT_EQ(third_sent, 100);
}

TEST(Channel, TrySendTryRecv) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  sim.spawn("p", [&] {
    EXPECT_FALSE(ch.tryRecv().has_value());
    EXPECT_TRUE(ch.trySend(5));
    EXPECT_FALSE(ch.trySend(6));  // full
    auto v = ch.tryRecv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5);
  });
  sim.run();
}

TEST(Channel, RecvForTimesOut) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got = 42;
  sim.spawn("p", [&] { got = ch.recvFor(100); });
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sim.now(), 100);
}

TEST(Channel, RecvForGetsValueBeforeTimeout) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  sim.spawn("consumer", [&] { got = ch.recvFor(kSecond); });
  sim.spawn("producer", [&] {
    sim.delay(10);
    ch.send(7);
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Channel, CloseUnblocksReceiverWithException) {
  Simulator sim;
  bool threw = false;
  Channel<int> ch(sim);
  sim.spawn("consumer", [&] {
    try {
      ch.recv();
    } catch (const ChannelClosed&) {
      threw = true;
    }
  });
  sim.spawn("closer", [&] {
    sim.delay(5);
    ch.close();
  });
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Channel, CloseDrainsQueuedItemsFirst) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  bool closed_seen = false;
  sim.spawn("p", [&] {
    ch.send(1);
    ch.send(2);
    ch.close();
    try {
      got.push_back(ch.recv());
      got.push_back(ch.recv());
      got.push_back(ch.recv());
    } catch (const ChannelClosed&) {
      closed_seen = true;
    }
  });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(closed_seen);
}

TEST(Channel, ZeroCapacityRejected) {
  Simulator sim;
  EXPECT_THROW(Channel<int>(sim, 0), mg::UsageError);
}

// Determinism: the same program produces the identical event trace twice.
TEST(Determinism, IdenticalRunsProduceIdenticalLogs) {
  auto runOnce = [] {
    Simulator sim;
    Channel<int> ch(sim);
    std::vector<std::string> log;
    for (int p = 0; p < 4; ++p) {
      sim.spawn("prod" + std::to_string(p), [&, p] {
        for (int i = 0; i < 5; ++i) {
          sim.delay(10 * (p + 1));
          ch.send(p * 100 + i);
        }
      });
    }
    sim.spawn("cons", [&] {
      for (int i = 0; i < 20; ++i) {
        int v = ch.recv();
        log.push_back(std::to_string(sim.now()) + ":" + std::to_string(v));
      }
    });
    sim.run();
    return log;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(Determinism, EventCounterAdvances) {
  Simulator sim;
  sim.scheduleAt(1, [] {});
  sim.scheduleAt(2, [] {});
  sim.run();
  EXPECT_GE(sim.eventsExecuted(), 2u);
}

// --------------------------------------------------- kernel edge cases ----

TEST(Simulator, RunUntilThenProcessContinues) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      sim.delay(100);
      log.push_back(sim.now());
    }
  });
  sim.runUntil(150);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
}

TEST(Simulator, ManyProcessesTearDownCleanly) {
  // 100 daemons blocked in different primitives; shutdown must unwind all.
  Simulator sim;
  auto cond = std::make_unique<Condition>(sim);
  auto chan = std::make_unique<Channel<int>>(sim);
  for (int i = 0; i < 100; ++i) {
    switch (i % 3) {
      case 0:
        sim.spawn(std::string("s").append(std::to_string(i)), [&] { sim.suspend(); });
        break;
      case 1:
        sim.spawn(std::string("c").append(std::to_string(i)), [&] { cond->wait(); });
        break;
      default:
        sim.spawn(std::string("r").append(std::to_string(i)), [&] { chan->recv(); });
        break;
    }
  }
  sim.run();
  EXPECT_EQ(sim.liveProcessCount(), 100);
  sim.shutdown();
  EXPECT_EQ(sim.liveProcessCount(), 0);
}

TEST(Channel, ManyProducersOneConsumerFifoPerProducer) {
  Simulator sim;
  Channel<std::pair<int, int>> ch(sim);
  constexpr int kProducers = 10;
  constexpr int kItems = 50;
  for (int p = 0; p < kProducers; ++p) {
    sim.spawn("prod" + std::to_string(p), [&, p] {
      for (int i = 0; i < kItems; ++i) {
        sim.delay((p + 1) % 7 + 1);
        ch.send({p, i});
      }
    });
  }
  std::vector<int> last(kProducers, -1);
  bool order_ok = true;
  sim.spawn("cons", [&] {
    for (int n = 0; n < kProducers * kItems; ++n) {
      auto [p, i] = ch.recv();
      if (i != last[static_cast<size_t>(p)] + 1) order_ok = false;
      last[static_cast<size_t>(p)] = i;
    }
  });
  sim.run();
  EXPECT_TRUE(order_ok);
  for (int v : last) EXPECT_EQ(v, kItems - 1);
}

TEST(Condition, KilledWaiterLeavesNoDanglingEntry) {
  // A process killed while waiting must be removed from the waiter list;
  // a later notify must not touch its freed Process.
  Simulator sim;
  auto cond = std::make_unique<Condition>(sim);
  sim.spawn("w", [&] { cond->wait(); });
  sim.run();
  EXPECT_EQ(cond->waiterCount(), 1u);
  sim.shutdown();  // unwinds the waiter through WaiterGuard
  EXPECT_EQ(cond->waiterCount(), 0u);
  cond->notifyAll();  // no waiters, no crash
}

TEST(Simulator, EventStormStaysOrdered) {
  // Many same-time events interleaved with cancellations keep FIFO order.
  Simulator sim;
  std::vector<int> ran;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.scheduleAt(10, [&ran, i] { ran.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 2) sim.cancel(ids[static_cast<size_t>(i)]);
  sim.run();
  ASSERT_EQ(ran.size(), 100u);
  for (size_t k = 0; k < ran.size(); ++k) EXPECT_EQ(ran[k], static_cast<int>(2 * k + 1));
}

// ------------------------------------------------- event arena + EventFn --

TEST(EventArena, MillionScheduleCancelStaysBounded) {
  // Regression for the lazy-cancellation kernel, where each cancel left a
  // tombstone in the priority queue: a timer-churn workload (schedule a
  // timeout, cancel it, repeat) grew the queue without bound. The arena
  // cancels in place and recycles slots, so one million churned timeouts
  // must leave the queue empty and the arena no larger than the peak number
  // of *concurrently* pending events.
  Simulator sim;
  constexpr int kTotal = 1'000'000;
  constexpr int kWindow = 64;  // live timeouts at any instant
  std::vector<EventId> window;
  for (int i = 0; i < kTotal; ++i) {
    window.push_back(sim.scheduleAt(1'000'000 + i, [] {}));
    if (window.size() == kWindow) {
      for (EventId id : window) sim.cancel(id);
      window.clear();
    }
  }
  for (EventId id : window) sim.cancel(id);
  EXPECT_EQ(sim.pendingEventCount(), 0u);
  EXPECT_LE(sim.eventArenaSlots(), static_cast<std::size_t>(kWindow));
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(EventArena, CancelledSlotReuseDoesNotConfuseStaleIds) {
  // A cancelled id whose slot was recycled must stay a no-op: the
  // generation tag changes on free, so the stale handle misses.
  Simulator sim;
  bool second_ran = false;
  EventId first = sim.scheduleAt(10, [] {});
  sim.cancel(first);
  EventId second = sim.scheduleAt(20, [&] { second_ran = true; });
  sim.cancel(first);  // stale: same slot, older generation
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_NE(first, second);
}

namespace {
struct InstanceCounter {
  static int live;
  InstanceCounter() { ++live; }
  InstanceCounter(const InstanceCounter&) { ++live; }
  InstanceCounter(InstanceCounter&&) noexcept { ++live; }
  ~InstanceCounter() { --live; }
};
int InstanceCounter::live = 0;
}  // namespace

TEST(EventFn, MoveOnlyCaptureStaysInline) {
  auto p = std::make_unique<int>(41);
  EventFn fn([p = std::move(p)] { ++*p; });
  EXPECT_FALSE(fn.onHeap());
  EXPECT_TRUE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
}

TEST(EventFn, LargeCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > inline capacity
  big[7] = 7;
  std::uint64_t seen = 0;
  EventFn fn([big, &seen] { seen = big[7]; });
  EXPECT_TRUE(fn.onHeap());
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(EventFn, DestructionBalancedAcrossMoves) {
  {
    EventFn fn([c = InstanceCounter{}] { (void)c; });
    EXPECT_EQ(InstanceCounter::live, 1);
    EventFn a = std::move(fn);
    EXPECT_EQ(InstanceCounter::live, 1);  // relocate, not copy
    EventFn b;
    b = std::move(a);
    EXPECT_EQ(InstanceCounter::live, 1);
  }
  EXPECT_EQ(InstanceCounter::live, 0);
}

TEST(EventFn, CancelDestroysCaptureImmediately) {
  Simulator sim;
  EventId id = sim.scheduleAt(10, [c = InstanceCounter{}] { (void)c; });
  EXPECT_EQ(InstanceCounter::live, 1);
  sim.cancel(id);
  // The capture dies at cancel time, not when the slot is later recycled.
  EXPECT_EQ(InstanceCounter::live, 0);
  sim.run();
}

TEST(EventFn, HeapFallbackCounterTracksOnlyOversizeCaptures) {
  Simulator sim;
  const auto& ctr = sim.metrics().counter("sim.kernel.eventfn_heap_fallbacks");
  long long sum = 0;
  for (int i = 0; i < 100; ++i) sim.scheduleAt(i, [&sum, i] { sum += i; });
  EXPECT_EQ(ctr.value(), 0);  // hot-path captures stay inline
  std::array<std::uint64_t, 16> big{};
  sim.scheduleAt(200, [big, &sum] { sum += static_cast<long long>(big[0]); });
  EXPECT_EQ(ctr.value(), 1);
  sim.run();
  EXPECT_EQ(sum, 4950);
}
