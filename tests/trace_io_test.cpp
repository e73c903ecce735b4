// Tests for trace file I/O and the PCIe future-work topology mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "topology/builders.hpp"
#include "topology/paths.hpp"
#include "workload/trace_io.hpp"

namespace hero {
namespace {

// --- trace I/O ---

TEST(TraceIo, RoundTrip) {
  wl::TraceOptions opts;
  opts.count = 40;
  opts.rate = 3.0;
  const wl::Trace original = wl::generate_trace(opts);
  std::stringstream buffer;
  wl::write_trace_csv(buffer, original);
  const wl::Trace loaded = wl::read_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_NEAR(raw(loaded[i].arrival), raw(original[i].arrival), 1e-6);
    EXPECT_EQ(loaded[i].input_tokens, original[i].input_tokens);
    EXPECT_EQ(loaded[i].output_tokens, original[i].output_tokens);
  }
}

TEST(TraceIo, ParsesCommentsAndHeader) {
  std::stringstream in(
      "# comment\n"
      "arrival_s,input_tokens,output_tokens\n"
      "1.5,100,20\n"
      "\n"
      "0.5,50,10\n");
  const wl::Trace t = wl::read_trace_csv(in);
  ASSERT_EQ(t.size(), 2u);
  // Sorted by arrival, ids renumbered.
  EXPECT_DOUBLE_EQ(raw(t[0].arrival), raw(0.5));
  EXPECT_EQ(t[0].id, 0u);
  EXPECT_EQ(t[1].input_tokens, 100u);
}

TEST(TraceIo, RejectsMalformedRows) {
  std::stringstream missing("1.0,2\n");
  EXPECT_THROW(wl::read_trace_csv(missing), std::runtime_error);
  std::stringstream garbage("1.0,abc,3\n");
  EXPECT_THROW(wl::read_trace_csv(garbage), std::runtime_error);
  std::stringstream negative("-1.0,5,3\n");
  EXPECT_THROW(wl::read_trace_csv(negative), std::runtime_error);
  // Non-finite values: a NaN arrival has no place in the event order.
  for (const char* row : {"nan,5,3\n", "inf,5,3\n", "1.0,nan,3\n"}) {
    std::stringstream bad(row);
    EXPECT_THROW(wl::read_trace_csv(bad), std::runtime_error) << row;
  }
  // Token counts and session ids are integers below 2^32.
  for (const char* row : {"0.2,1e30,10\n", "0.2,2.5,10\n",
                          "0.2,4294967296,10\n", "0.2,10,2.5\n",
                          "0.2,10,5,4294967296,0\n", "0.2,10,5,1,2.5\n"}) {
    std::stringstream bad(row);
    EXPECT_THROW(wl::read_trace_csv(bad), std::runtime_error) << row;
  }
  // A cell is one number and nothing else, and a row has no sixth cell.
  for (const char* row : {"0.2,100x,10abc\n", "0.2,100,10x\n",
                          "0.2 s,100,10\n", "0.2,100,10,1,5,junk\n",
                          "0.2,100,10,1,5,6\n"}) {
    std::stringstream bad(row);
    EXPECT_THROW(wl::read_trace_csv(bad), std::runtime_error) << row;
  }
  // Blanks around a number are fine.
  std::stringstream spaced("0.1, 100 ,10\n0.2,\t50\t, 5 , 1 ,0\n");
  const wl::Trace trimmed = wl::read_trace_csv(spaced);
  ASSERT_EQ(trimmed.size(), 2u);
  EXPECT_EQ(trimmed[0].input_tokens, 100u);
  EXPECT_EQ(trimmed[1].input_tokens, 50u);
  EXPECT_EQ(trimmed[1].session_id, 1u);
  std::stringstream largest("0.2,4294967295,10,4294967295,7\n");
  const wl::Trace kept = wl::read_trace_csv(largest);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].input_tokens, 4294967295u);
  EXPECT_EQ(kept[0].session_id, 4294967295u);
}

TEST(TraceIo, SessionColumnsRoundTrip) {
  wl::MultiturnOptions opts;
  opts.base.rate = 4.0;
  opts.base.count = 60;
  const wl::Trace original = wl::generate_multiturn_trace(opts);
  std::stringstream buffer;
  wl::write_trace_csv(buffer, original);
  EXPECT_NE(buffer.str().find("session_id,prefix_tokens"),
            std::string::npos);
  const wl::Trace loaded = wl::read_trace_csv(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].session_id, original[i].session_id);
    EXPECT_EQ(loaded[i].prefix_tokens, original[i].prefix_tokens);
  }
}

TEST(TraceIo, SessionlessTraceKeepsLegacyThreeColumnFormat) {
  wl::TraceOptions opts;
  opts.count = 10;
  const wl::Trace t = wl::generate_trace(opts);
  std::stringstream buffer;
  wl::write_trace_csv(buffer, t);
  // Byte-compatible with pre-tier traces: no session columns anywhere.
  EXPECT_EQ(buffer.str().find("session_id"), std::string::npos);
  for (std::string line; std::getline(buffer, line);) {
    if (line.empty() || line[0] == '#' || line.find("arrival") == 0) continue;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2)
        << "unexpected row: " << line;
  }
  // Legacy rows load with empty session fields.
  std::stringstream legacy("0.5,100,20\n");
  const wl::Trace loaded = wl::read_trace_csv(legacy);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].session_id, 0u);
  EXPECT_EQ(loaded[0].prefix_tokens, 0u);
}

TEST(TraceIo, RejectsBadSessionRows) {
  // 4 fields is neither legacy nor session format.
  std::stringstream four("1.0,100,20,7\n");
  EXPECT_THROW(wl::read_trace_csv(four), std::runtime_error);
  // A prefix claiming the whole input leaves no fresh turn tokens.
  std::stringstream prefix("1.0,100,20,7,100\n");
  EXPECT_THROW(wl::read_trace_csv(prefix), std::runtime_error);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(wl::load_trace_csv("/nonexistent/trace.csv"),
               std::runtime_error);
}

TEST(TraceIo, RescaleRateHitsTarget) {
  wl::TraceOptions opts;
  opts.count = 200;
  opts.rate = 2.0;
  wl::Trace t = wl::rescale_rate(wl::generate_trace(opts), 8.0);
  EXPECT_NEAR(raw(wl::summarize(t).mean_rate), raw(8.0), 0.01);
  // Lengths untouched.
  EXPECT_GT(t[0].input_tokens, 0u);
}

TEST(TraceIo, RescaleDegenerateTraces) {
  wl::Trace empty;
  EXPECT_TRUE(wl::rescale_rate(empty, 2.0).empty());
  wl::Trace one{wl::Request{0, 5.0, 10, 10}};
  EXPECT_DOUBLE_EQ(raw(wl::rescale_rate(one, 2.0)[0].arrival), raw(5.0));
}

// --- PCIe intra-server mode (paper SVII future work) ---

TEST(PcieMode, IntraServerEdgesUsePcieBandwidth) {
  topo::TestbedOptions opts;
  opts.links.intra_link = topo::IntraLink::kPcie;
  const topo::Graph g = topo::make_testbed(opts);
  int intra = 0;
  for (topo::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).kind != topo::LinkKind::kNvLink) continue;
    ++intra;
    EXPECT_LE(g.edge(e).capacity, 32.0 * units::GBps);
  }
  EXPECT_EQ(intra, 24);
}

TEST(PcieMode, CrossNumaPairsPayPenalty) {
  topo::TestbedOptions opts;
  opts.links.intra_link = topo::IntraLink::kPcie;
  const topo::Graph g = topo::make_testbed(opts);
  // Server 0: GPUs {g0,g1 | g2,g3} NUMA split. g0-g1 full PCIe, g0-g2
  // penalized.
  const auto by_server = g.gpus_by_server();
  auto edge_between = [&](topo::NodeId a, topo::NodeId b) -> const topo::Edge& {
    for (const topo::Adjacency& adj : g.neighbors(a)) {
      if (adj.peer == b && g.edge(adj.edge).kind == topo::LinkKind::kNvLink) {
        return g.edge(adj.edge);
      }
    }
    throw std::logic_error("no intra edge");
  };
  const topo::Edge& same_numa = edge_between(by_server[0][0], by_server[0][1]);
  const topo::Edge& cross_numa = edge_between(by_server[0][0], by_server[0][2]);
  EXPECT_DOUBLE_EQ(raw(same_numa.capacity), raw(32.0 * units::GBps));
  EXPECT_DOUBLE_EQ(raw(cross_numa.capacity), raw(16.0 * units::GBps));
  EXPECT_GT(cross_numa.latency, same_numa.latency);
}

TEST(PcieMode, NvLinkDefaultUnchanged) {
  const topo::Graph g = topo::make_testbed();
  for (topo::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).kind == topo::LinkKind::kNvLink) {
      EXPECT_DOUBLE_EQ(raw(g.edge(e).capacity), raw(600.0 * units::GBps));
    }
  }
}

TEST(PcieMode, HeterogeneousRoutingStillWorks) {
  // NVLink-forwarding semantics apply to PCIe edges the same way.
  topo::LinkSpec links;
  links.intra_link = topo::IntraLink::kPcie;
  const topo::Graph g = topo::make_fig2_example(links);
  const auto p = topo::shortest_path(g, g.find("GN1"), g.find("S2"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_TRUE(p->uses_nvlink(g));
}

}  // namespace
}  // namespace hero
