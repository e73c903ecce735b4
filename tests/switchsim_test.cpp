// Tests for the programmable-switch admission/timing agent and its
// registry.
#include <gtest/gtest.h>

#include "switchsim/switch_agent.hpp"
#include "topology/builders.hpp"

namespace hero::sw {
namespace {

// --- SwitchAgent ---

struct AgentFixture {
  sim::Simulator sim;
  SwitchAgent agent{sim, 0, /*total_slots=*/64};
};

TEST(SwitchAgent, GrantWithinCapacity) {
  AgentFixture f;
  bool granted = false;
  EXPECT_EQ(f.agent.reserve(1, 32, true, [&] { granted = true; }),
            Admission::kGranted);
  EXPECT_FALSE(granted);  // grant callback is asynchronous
  f.sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(f.agent.slots_in_use(), 32u);
}

TEST(SwitchAgent, SynchronousQueuesWhenFull) {
  AgentFixture f;
  f.agent.reserve(1, 48, true, nullptr);
  bool granted = false;
  EXPECT_EQ(f.agent.reserve(2, 48, true, [&] { granted = true; }),
            Admission::kQueued);
  f.sim.run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(f.agent.queue_depth(), 1u);
  f.agent.release(1);
  f.sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(f.agent.slots_in_use(), 48u);
}

TEST(SwitchAgent, AsynchronousRejectsWhenFull) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  EXPECT_EQ(f.agent.reserve(2, 1, false, nullptr), Admission::kRejected);
  EXPECT_EQ(f.agent.jobs_rejected, 1u);
}

TEST(SwitchAgent, FifoAdmissionFromQueue) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  std::vector<int> order;
  f.agent.reserve(2, 32, true, [&] { order.push_back(2); });
  f.agent.reserve(3, 32, true, [&] { order.push_back(3); });
  f.agent.release(1);
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(SwitchAgent, QueueBlocksLaterArrivalsEvenIfTheyFit) {
  // FIFO: a small job behind a large queued job must not jump the queue.
  AgentFixture f;
  f.agent.reserve(1, 60, true, nullptr);
  bool small_granted = false;
  f.agent.reserve(2, 64, true, nullptr);             // queued
  EXPECT_EQ(f.agent.reserve(3, 2, true, [&] { small_granted = true; }),
            Admission::kQueued);
  f.sim.run();
  EXPECT_FALSE(small_granted);
}

TEST(SwitchAgent, AbandonRemovesQueuedJob) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  bool granted = false;
  f.agent.reserve(2, 8, true, [&] { granted = true; });
  f.agent.abandon(2);
  f.agent.release(1);
  f.sim.run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(f.agent.queue_depth(), 0u);
}

TEST(SwitchAgent, ReleaseUnknownIsNoop) {
  AgentFixture f;
  f.agent.release(42);
  EXPECT_EQ(f.agent.slots_in_use(), 0u);
}

TEST(SwitchAgent, OversizedRequestClampsToPool) {
  AgentFixture f;
  EXPECT_EQ(f.agent.reserve(1, 1000, true, nullptr), Admission::kGranted);
  EXPECT_EQ(f.agent.slots_in_use(), 64u);
}

TEST(SwitchAgent, DoubleReserveThrows) {
  AgentFixture f;
  f.agent.reserve(1, 8, true, nullptr);
  EXPECT_THROW(f.agent.reserve(1, 8, true, nullptr), std::logic_error);
}

TEST(SwitchAgent, CountersTrackAdmissions) {
  AgentFixture f;
  f.agent.reserve(1, 64, true, nullptr);
  f.agent.reserve(2, 8, true, nullptr);
  f.agent.reserve(3, 8, false, nullptr);
  EXPECT_EQ(f.agent.jobs_granted, 1u);
  EXPECT_EQ(f.agent.jobs_queued, 1u);
  EXPECT_EQ(f.agent.jobs_rejected, 1u);
}

TEST(SwitchRegistry, BuildsAgentsFromTopology) {
  sim::Simulator sim;
  const topo::Graph g = topo::make_testbed();
  SwitchRegistry registry(sim, g);
  SwitchAgent& a = registry.agent(g.find("sw0"));
  EXPECT_EQ(a.slots_total(), 128u);
  // Same node returns the same agent.
  EXPECT_EQ(&registry.agent(g.find("sw0")), &a);
}

TEST(SwitchRegistry, RejectsNonSwitchNodes) {
  sim::Simulator sim;
  const topo::Graph g = topo::make_testbed();
  SwitchRegistry registry(sim, g);
  EXPECT_THROW(registry.agent(g.gpus()[0]), std::invalid_argument);
}

}  // namespace
}  // namespace hero::sw
