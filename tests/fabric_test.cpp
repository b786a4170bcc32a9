// Fabric subsystem: topology generators, ECMP routing, planner math, the
// end-to-end guarantee property, and sweep-engine determinism.
#include "fabric/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "expt/sweep.h"
#include "fabric/planner.h"
#include "fabric/routing.h"
#include "fabric/topology.h"

namespace bufq::fabric {
namespace {

const LinkParams kLink{};  // 48 Mb/s, 1 ms, 500 KB

TEST(TopologyTest, ParkingLotShape) {
  const ParkingLotFabric lot = make_parking_lot(5, kLink, kLink);
  EXPECT_EQ(lot.routers.size(), 5u);
  EXPECT_EQ(lot.exit_hosts.size(), 4u);
  EXPECT_EQ(lot.topo.switch_count(), 5u);
  // 4 exit hosts + the terminal sink.
  EXPECT_EQ(lot.topo.host_count(), 5u);
  // 4 trunk links + the sink link + 4 exit-host links.
  EXPECT_EQ(lot.topo.link_count(), 9u);
  EXPECT_TRUE(lot.topo.node(lot.sink).host);
  EXPECT_FALSE(lot.topo.node(lot.routers[0]).host);
}

TEST(TopologyTest, LeafSpineShape) {
  const LeafSpineFabric fabric = make_leaf_spine(4, 4, 2, kLink, kLink);
  EXPECT_EQ(fabric.leaves.size(), 4u);
  EXPECT_EQ(fabric.spines.size(), 4u);
  EXPECT_EQ(fabric.hosts.size(), 8u);
  EXPECT_EQ(fabric.topo.switch_count(), 8u);
  // Full duplex leaf-spine mesh (4*4*2 directed) + 8 duplex host links.
  EXPECT_EQ(fabric.topo.link_count(), 32u + 16u);
}

TEST(TopologyTest, FatTreeShapeK4) {
  const FatTreeFabric fabric = make_fat_tree(4, kLink, kLink);
  // The acceptance shape: k=4 -> 8 edge + 8 agg + 4 core = 20 switches,
  // k^3/4 = 16 hosts.
  EXPECT_EQ(fabric.edges.size(), 8u);
  EXPECT_EQ(fabric.aggs.size(), 8u);
  EXPECT_EQ(fabric.cores.size(), 4u);
  EXPECT_EQ(fabric.hosts.size(), 16u);
  EXPECT_EQ(fabric.topo.switch_count(), 20u);
  EXPECT_EQ(fabric.topo.host_count(), 16u);
  // Per pod: 2x2 edge-agg duplex mesh = 8 directed; agg-core: 8 aggs x 2
  // cores duplex = 32 directed; hosts: 16 duplex = 32 directed.
  EXPECT_EQ(fabric.topo.link_count(), 4u * 8u + 32u + 32u);
}

TEST(RoutingTest, ParkingLotDistances) {
  const ParkingLotFabric lot = make_parking_lot(5, kLink, kLink);
  const RouteTable routes = RouteTable::shortest_paths(lot.topo);
  // r1 -> sink: 4 trunk hops + the sink link.
  EXPECT_EQ(routes.distance(lot.routers[0], lot.sink), 5);
  EXPECT_EQ(routes.distance(lot.routers[4], lot.sink), 1);
  EXPECT_EQ(routes.distance(lot.sink, lot.sink), 0);
  // The chain is directed; nothing routes backwards.
  EXPECT_EQ(routes.distance(lot.sink, lot.routers[0]), -1);
}

TEST(RoutingTest, FlowPathConnectsEndpoints) {
  const FatTreeFabric fabric = make_fat_tree(4, kLink, kLink);
  const RouteTable routes = RouteTable::shortest_paths(fabric.topo);
  const NodeId src = fabric.hosts.front();
  const NodeId dst = fabric.hosts.back();  // different pod: 6-link path
  const auto path = flow_path(fabric.topo, routes, 7, src, dst, 42);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(fabric.topo.link(path.front()).from, src);
  EXPECT_EQ(fabric.topo.link(path.back()).to, dst);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(fabric.topo.link(path[i - 1]).to, fabric.topo.link(path[i]).from);
  }
}

TEST(RoutingTest, EcmpIsDeterministic) {
  const LeafSpineFabric fabric = make_leaf_spine(4, 4, 2, kLink, kLink);
  const RouteTable routes = RouteTable::shortest_paths(fabric.topo);
  const NodeId src = fabric.hosts[0];
  const NodeId dst = fabric.hosts[6];  // a different leaf
  for (FlowId flow = 0; flow < 32; ++flow) {
    const auto first = flow_path(fabric.topo, routes, flow, src, dst, 1);
    const auto again = flow_path(fabric.topo, routes, flow, src, dst, 1);
    EXPECT_EQ(first, again) << "flow " << flow << " not pinned";
  }
}

TEST(RoutingTest, EcmpSpreadsAcrossSpines) {
  const LeafSpineFabric fabric = make_leaf_spine(4, 4, 2, kLink, kLink);
  const RouteTable routes = RouteTable::shortest_paths(fabric.topo);
  const NodeId src = fabric.hosts[0];
  const NodeId dst = fabric.hosts[6];
  std::set<NodeId> spines_used;
  for (FlowId flow = 0; flow < 64; ++flow) {
    const auto path = flow_path(fabric.topo, routes, flow, src, dst, 1);
    ASSERT_EQ(path.size(), 4u);  // host->leaf->spine->leaf->host
    spines_used.insert(fabric.topo.link(path[1]).to);
  }
  // 64 flows over 4 equal-cost spines: a hash that collapsed to one spine
  // would defeat ECMP.
  EXPECT_GT(spines_used.size(), 1u);
}

TEST(PlannerTest, ThresholdsMatchHandComposition) {
  // 3-hop parking lot at 12 Mb/s declared rate: growth per hop is
  // rho * B / R = 1.5e6 B/s * (500000 * 8 / 48e6) s = 125 KB, so with
  // sigma = 1000 B the thresholds are 126000 / 251000 / 376000.
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.premium_rate = Rate::megabits_per_second(12.0);
  const FabricScenario scenario = build_fabric_scenario(config);
  ASSERT_TRUE(scenario.plan.feasible);
  const FlowPlan& premium = scenario.plan.flows[0];
  ASSERT_EQ(premium.hops.size(), 3u);
  EXPECT_EQ(premium.hops[0].threshold_bytes, 126'000);
  EXPECT_EQ(premium.hops[1].threshold_bytes, 251'000);
  EXPECT_EQ(premium.hops[2].threshold_bytes, 376'000);
  // Composed FIFO bound: 3 * ((B + L) * 8 / R + prop)
  //                    = 3 * ((500000 + 500) * 8 / 48e6 + 1e-3) s.
  EXPECT_NEAR(premium.delay_bound_s, 3.0 * (4'004'000.0 / 48e6 + 1e-3), 1e-6);
}

TEST(PlannerTest, DefaultScenarioFeasibleOnFiveHops) {
  // rho / R = 1/8 at 6 Mb/s: growth 62.5 KB per hop, so the 5th-hop
  // threshold is 1000 + 5 * 62500 = 313.5 KB, still under the 500 KB
  // buffer.
  const FabricScenario scenario = build_fabric_scenario(FabricConfig{});
  ASSERT_TRUE(scenario.plan.feasible);
  const FlowPlan& premium = scenario.plan.flows[0];
  ASSERT_EQ(premium.hops.size(), 5u);
  EXPECT_EQ(premium.hops.back().threshold_bytes, 313'500);
}

TEST(PlannerTest, InfeasibleWhenBurstOutgrowsBuffer) {
  // rho / R = 1/2: growth 250 KB per hop, so hop 2 would need
  // 251000 + 250000 > 500 KB and the plan must say so.
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.premium_rate = Rate::megabits_per_second(24.0);
  const FabricScenario scenario = build_fabric_scenario(config);
  EXPECT_FALSE(scenario.plan.feasible);
}

TEST(PlannerTest, ThresholdVectorSplitsLeftoverAcrossBestEffort) {
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 3;
  config.premium_rate = Rate::megabits_per_second(12.0);
  const FabricScenario scenario = build_fabric_scenario(config);
  const LinkId first_hop = scenario.plan.flows[0].path.front();
  const std::size_t flows = scenario.bindings.size();
  const auto thresholds = scenario.plan.thresholds_for(first_hop, flows);
  ASSERT_EQ(thresholds.size(), flows);
  // Premium reservation, then the single local cross flow takes the
  // leftover; the downstream cross flows never touch this link.
  EXPECT_EQ(thresholds[0], 126'000);
  EXPECT_EQ(thresholds[1], 500'000 - 126'000);
  for (std::size_t f = 2; f < flows; ++f) EXPECT_EQ(thresholds[f], 0);
}

/// The acceptance property: across a 5-hop parking lot where every trunk
/// link is saturated by a greedy local adversary, the planner-provisioned
/// premium flow is delivered losslessly at its declared rate and every
/// packet's end-to-end delay stays under the composed FIFO bound.  The
/// egress audit (Invariant::kDelayBound) runs when checks are compiled
/// in; the direct p100 assertion below holds in every build type.
TEST(FabricE2ETest, SaturatedParkingLotHonorsGuarantee) {
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 5;
  config.load = 2.0;
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::seconds(1);
  config.duration = Time::seconds(8);

  const FabricScenario scenario = build_fabric_scenario(config);
  ASSERT_TRUE(scenario.plan.feasible);
  const double bound_s = scenario.plan.flows[0].delay_bound_s;
  ASSERT_GT(bound_s, 0.0);

  const ExperimentResult result = run_fabric_experiment(config);
  EXPECT_EQ(result.per_flow.front().dropped_packets, 0u);
  EXPECT_NEAR(result.flow_throughput_mbps(0), config.premium_rate.mbps(),
              config.premium_rate.mbps() * 0.05);
  ASSERT_FALSE(result.delays.empty());
  EXPECT_LE(result.delays.front().max_s, bound_s);
  EXPECT_EQ(result.check_violations, 0u);
}

/// Contrast case: the same saturated chain under plain tail drop starves
/// the premium flow — the guarantee really does come from the planner's
/// thresholds, not from the topology.
TEST(FabricE2ETest, TailDropStarvesThePremiumFlow) {
  FabricConfig config;
  config.topology = FabricTopologyKind::kParkingLot;
  config.size = 5;
  config.load = 2.0;
  config.scheme.manager = ManagerKind::kNone;
  config.warmup = Time::seconds(1);
  config.duration = Time::seconds(4);

  const ExperimentResult result = run_fabric_experiment(config);
  EXPECT_GT(result.per_flow.front().loss_ratio(), 0.2);
}

TEST(FabricSweepTest, CsvBitIdenticalAcrossJobCounts) {
  auto make_cases = [] {
    std::vector<SweepCase> cases;
    for (const auto& [kind, size] :
         std::vector<std::pair<FabricTopologyKind, int>>{
             {FabricTopologyKind::kFatTree, 4}, {FabricTopologyKind::kParkingLot, 5}}) {
      FabricConfig config;
      config.topology = kind;
      config.size = size;
      config.warmup = Time::milliseconds(250);
      config.duration = Time::milliseconds(750);
      cases.push_back(fabric_sweep_case(to_string(kind),
                                        {{"topology", to_string(kind)}}, config));
    }
    return cases;
  };

  std::string reference;
  for (std::size_t jobs : {1u, 2u, 8u}) {
    SweepOptions options;
    options.jobs = jobs;
    options.replications = 2;
    options.base_seed = 3;
    const SweepResult result = run_sweep(make_cases(), fabric_metrics, options);
    ASSERT_TRUE(result.ok());
    std::ostringstream csv;
    write_sweep_csv(csv, result);
    if (reference.empty()) {
      reference = csv.str();
    } else {
      EXPECT_EQ(csv.str(), reference) << "jobs=" << jobs << " diverged";
    }
  }
}

}  // namespace
}  // namespace bufq::fabric
