// Fig. 2 reproduction: INA aggregation delay over homogeneous vs
// heterogeneous networks.
//
// Paper: "For 1 MB of data, two hops of Ethernet links are required,
// resulting in an aggregation delay of approximately 160 us. In a
// heterogeneous network, GPUs use NVLink to forward data to an access
// switch S2 before traversing an Ethernet link. This path significantly
// reduces the delay to about 90 us, nearly 43% lower."
//
// The bench executes both variants through the full stack (routing + flow
// network + switch agent) for the {GN1, GN3} group of the Fig. 2 topology
// and reports the collection delay (time until all contributions reach the
// aggregation switch) and the full all-reduce latency.
#include "bench_util.hpp"
#include "collectives/engine.hpp"
#include "netsim/flownet.hpp"
#include "topology/builders.hpp"

namespace {

using namespace hero;

struct Fig2Result {
  Time collection = 0;
  Time total = 0;
};

Fig2Result run_fig2(bool heterogeneous, Bytes bytes) {
  const topo::Graph graph = topo::make_fig2_example();
  sim::Simulator simulator;
  net::FlowNetwork network(simulator, graph);
  sw::SwitchRegistry switches(simulator, graph);
  coll::CollectiveEngine engine(network, switches);

  topo::PathOptions paths;
  paths.constraints = topo::PathConstraints{heterogeneous, true};
  const topo::PathOracle oracle(graph, paths);
  const std::vector<topo::NodeId> group{graph.find("GN1"),
                                        graph.find("GN3")};
  const auto ranked = coll::rank_aggregation_switches(oracle, group, 1);
  auto plan = std::make_shared<const coll::AllReducePlan>(coll::make_ina_plan(
      group, ranked.front(), coll::Scheme::kInaSync, oracle));

  Fig2Result result;
  engine.all_reduce(std::move(plan), bytes,
                    [&](const coll::AllReduceResult& r) {
                      result.collection = r.collected - r.start;
                      result.total = r.latency();
                    });
  simulator.run();
  return result;
}

hero::bench::FigureTable g_table(
    "Fig. 2: aggregation delay, 1 MB, {GN1, GN3}",
    {"network", "agg switch path", "collection (us)", "full all-reduce (us)",
     "vs homogeneous"});

Fig2Result g_homo, g_hetero;

void Fig2_Homogeneous(benchmark::State& state) {
  for (auto _ : state) {
    g_homo = run_fig2(false, 1.0 * units::MB);
    benchmark::DoNotOptimize(g_homo);
  }
  state.counters["collection_us"] = g_homo.collection / units::us;
  state.counters["total_us"] = g_homo.total / units::us;
}
BENCHMARK(Fig2_Homogeneous)->Iterations(1);

void Fig2_Heterogeneous(benchmark::State& state) {
  for (auto _ : state) {
    g_hetero = run_fig2(true, 1.0 * units::MB);
    benchmark::DoNotOptimize(g_hetero);
  }
  state.counters["collection_us"] = g_hetero.collection / units::us;
  state.counters["total_us"] = g_hetero.total / units::us;
}
BENCHMARK(Fig2_Heterogeneous)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  (void)hero::bench::init(argc, argv,
                          "bench_fig2_hetero_ina [google-benchmark flags]", 0);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  g_table.add_row({"homogeneous (Ethernet only)", "2 Ethernet hops -> core",
                   fmt_double(g_homo.collection / units::us, 1),
                   fmt_double(g_homo.total / units::us, 1), "baseline"});
  g_table.add_row(
      {"heterogeneous (NVLink fwd)", "NVLink + 1 Ethernet hop -> access",
       fmt_double(g_hetero.collection / units::us, 1),
       fmt_double(g_hetero.total / units::us, 1),
       fmt_double(100.0 * (1.0 - g_hetero.collection / g_homo.collection),
                  1) +
           "% lower"});
  g_table.print();
  std::printf(
      "paper: ~160 us homogeneous vs ~90 us heterogeneous (~43%% lower)\n");

  hero::bench::JsonReport json("fig2_hetero_ina");
  for (const auto& [network, r] :
       {std::pair<const char*, const Fig2Result&>{"homogeneous", g_homo},
        {"heterogeneous", g_hetero}}) {
    json.add_row()
        .str("network", network)
        .num("collection_us", r.collection / units::us)
        .num("total_us", r.total / units::us);
  }
  json.write("BENCH_fig2_hetero_ina.json");
  return 0;
}
