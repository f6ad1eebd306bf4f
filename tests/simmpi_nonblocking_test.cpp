// Tests for the nonblocking simmpi layer: Request lifecycle rules,
// overlap virtual-clock crediting (max(compute, comm) instead of the
// sum), injection serialization of posted sends, sendrecv on top of
// isend/irecv, and the deadlock watchdog.

#include <gtest/gtest.h>

#include <vector>

#include "simmpi/runtime.hpp"

namespace tucker::mpi {
namespace {

// ------------------------------------------------------- request basics

TEST(SimMpiNonblocking, IsendIrecvDeliversPayload) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v = {1.5, -2.5, 3.25};
      Request s = c.isend(1, v.data(), 3, /*tag=*/7);
      s.wait();
    } else {
      std::vector<double> v(3);
      Request r = c.irecv(0, v.data(), 3, /*tag=*/7);
      r.wait();
      EXPECT_EQ(v[0], 1.5);
      EXPECT_EQ(v[1], -2.5);
      EXPECT_EQ(v[2], 3.25);
    }
  });
}

TEST(SimMpiNonblocking, ReceivesCompleteOutOfPostOrder) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      int a = 11, b = 22, d = 33;
      std::vector<Request> reqs;
      reqs.push_back(c.isend(1, &a, 1, 1));
      reqs.push_back(c.isend(1, &b, 1, 2));
      reqs.push_back(c.isend(1, &d, 1, 3));
      for (Request& r : reqs) r.wait();
    } else {
      int a = 0, b = 0, d = 0;
      // Post receives in one order, complete them in another.
      Request r3 = c.irecv(0, &d, 1, 3);
      Request r1 = c.irecv(0, &a, 1, 1);
      Request r2 = c.irecv(0, &b, 1, 2);
      r3.wait();
      r1.wait();
      r2.wait();
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
      EXPECT_EQ(d, 33);
    }
  });
}

TEST(SimMpiNonblocking, MoveTransfersOwnership) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      int x = 5;
      Request s = c.isend(1, &x, 1);
      Request moved = std::move(s);
      EXPECT_FALSE(s.active());
      EXPECT_TRUE(moved.active());
      moved.wait();
    } else {
      int x = 0;
      c.recv(0, &x, 1);
      EXPECT_EQ(x, 5);
    }
  });
}

TEST(SimMpiNonblockingDeath, DestroyingActiveRequestAborts) {
  EXPECT_DEATH(Runtime::run(1,
                            [](Comm& c) {
                              int x = 1;
                              Request s = c.isend(0, &x, 1);
                              // s destructs while still active.
                            }),
               "destroyed while still active");
}

TEST(SimMpiNonblockingDeath, ReusingActiveRequestAborts) {
  EXPECT_DEATH(Runtime::run(1,
                            [](Comm& c) {
                              int x = 1;
                              Request s = c.isend(0, &x, 1);
                              s = c.isend(0, &x, 1);  // overwrite while active
                            }),
               "reused while still active");
}

// ------------------------------------------------- overlap clock credit

// The modeled costs below dwarf the measured CPU time of these tiny
// bodies (<< 10 ms), so clock assertions use a 0.1 s tolerance against
// 0.25/0.5 s modeled costs.
constexpr double kTol = 0.1;

TEST(SimMpiOverlapClock, SendrecvChargesHalfAndHidesHalf) {
  CostModel m;
  m.alpha = 0.25;  // pure latency: beta = 0 isolates the credit math
  m.beta = 0;
  auto stats = Runtime::run(
      2,
      [](Comm& c) {
        int mine = c.rank(), theirs = -1;
        c.sendrecv(1 - c.rank(), &mine, 1, &theirs, 1);
        EXPECT_EQ(theirs, 1 - c.rank());
      },
      m);
  for (const auto& r : stats.ranks) {
    // Full-duplex: the clock advances by one message cost, not two. The
    // second direction's cost is credited as hidden.
    EXPECT_NEAR(r.vtime, 0.25, kTol);
    EXPECT_NEAR(r.comm_seconds, 0.25, kTol);
    EXPECT_NEAR(r.comm_hidden, 0.25, kTol);
  }
}

TEST(SimMpiOverlapClock, PostedSendsSerializeThroughInjection) {
  CostModel m;
  m.alpha = 0.25;
  m.beta = 0;
  auto stats = Runtime::run(
      2,
      [](Comm& c) {
        if (c.rank() == 0) {
          int a = 1, b = 2;
          std::vector<Request> reqs;
          reqs.push_back(c.isend(1, &a, 1, 1));
          reqs.push_back(c.isend(1, &b, 1, 2));
          for (Request& r : reqs) r.wait();
        } else {
          int a = 0, b = 0;
          c.recv(0, &a, 1, 1);
          c.recv(0, &b, 1, 2);
        }
      },
      m);
  // Two posted sends cannot share the injection pipe: the rank pays both
  // message costs on its clock and nothing is hidden. The receiver pays
  // the same (second message only ready at 2 * alpha).
  EXPECT_NEAR(stats.ranks[0].vtime, 0.5, kTol);
  EXPECT_NEAR(stats.ranks[0].comm_seconds, 0.5, kTol);
  EXPECT_NEAR(stats.ranks[0].comm_hidden, 0.0, kTol);
  EXPECT_NEAR(stats.ranks[1].comm_seconds, 0.5, kTol);
}

TEST(SimMpiOverlapClock, ImmediateWaitMatchesBlockingCharge) {
  CostModel m;
  m.alpha = 0.25;
  m.beta = 0;
  auto run = [&](bool nonblocking) {
    return Runtime::run(
        2,
        [nonblocking](Comm& c) {
          int x = c.rank();
          if (c.rank() == 0) {
            if (nonblocking) {
              Request s = c.isend(1, &x, 1);
              s.wait();
            } else {
              c.send(1, &x, 1);
            }
          } else {
            c.recv(0, &x, 1);
          }
        },
        m);
  };
  auto blocking = run(false);
  auto posted = run(true);
  // Posting and immediately waiting credits exactly the blocking cost:
  // no overlap window, no hidden time.
  EXPECT_NEAR(posted.ranks[0].comm_seconds, blocking.ranks[0].comm_seconds,
              kTol);
  EXPECT_NEAR(posted.ranks[0].comm_hidden, 0.0, kTol);
}

// ------------------------------------------------------------ sendrecv

TEST(SimMpiNonblockingColl, SendrecvStillExchangesAcrossGridPattern) {
  // The butterfly exchange pattern TSQR uses, on the rewritten sendrecv.
  Runtime::run(8, [](Comm& c) {
    int acc = c.rank();
    for (int mask = 1; mask < 8; mask <<= 1) {
      const int partner = c.rank() ^ mask;
      int theirs = -1;
      c.sendrecv(partner, &acc, 1, &theirs, 1, /*tag=*/mask);
      acc += theirs;
    }
    EXPECT_EQ(acc, 28);  // sum 0..7 everywhere
  });
}

// --------------------------------------------------- deadlock watchdog

TEST(SimMpiWatchdogDeath, AllBlockedWorldAbortsWithReport) {
  CostModel m;
  m.watchdog_seconds = 0.2;
  EXPECT_DEATH(Runtime::run(
                   2,
                   [](Comm& c) {
                     if (c.rank() == 1) {
                       // Rank 0 finishes immediately; this receive can
                       // never be matched.
                       int x = 0;
                       c.recv(0, &x, 1, /*tag=*/99);
                     }
                   },
                   m),
               "deadlock watchdog");
}

TEST(SimMpiWatchdogDeath, ReportNamesFinishedRanks) {
  CostModel m;
  m.watchdog_seconds = 0.2;
  EXPECT_DEATH(Runtime::run(
                   2,
                   [](Comm& c) {
                     if (c.rank() == 1) {
                       int x = 0;
                       c.recv(0, &x, 1, /*tag=*/99);
                     }
                   },
                   m),
               "finished \\(will never send again\\)");
}

TEST(SimMpiWatchdog, DisabledWatchdogStillRunsNormally) {
  CostModel m;
  m.watchdog_seconds = 0;  // disabled
  auto stats = Runtime::run(
      3,
      [](Comm& c) {
        double x = 1.0;
        c.allreduce(&x, 1, Op::kSum);
        EXPECT_EQ(x, 3.0);
      },
      m);
  EXPECT_EQ(stats.ranks.size(), 3u);
}

TEST(SimMpiWatchdog, SlowButLiveWorldDoesNotTrip) {
  // Ranks block one at a time but the world keeps making progress: the
  // watchdog must never fire because all-blocked never holds for long.
  CostModel m;
  m.watchdog_seconds = 0.3;
  Runtime::run(4, [](Comm& c) {
    for (int round = 0; round < 20; ++round) {
      double x = static_cast<double>(c.rank());
      c.allreduce(&x, 1, Op::kSum);
      EXPECT_EQ(x, 6.0);
    }
  });
}

}  // namespace
}  // namespace tucker::mpi
