// Tests for the MPSoC substrate: task graphs, platform model, list
// scheduling with contention, energy accounting, mapping algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mpsoc/mapping.h"
#include "mpsoc/platform.h"
#include "mpsoc/schedule.h"
#include "mpsoc/taskgraph.h"

namespace mmsoc::mpsoc {
namespace {

Task simple_task(const char* name, double ops) {
  Task t;
  t.name = name;
  t.work_ops = ops;
  return t;
}

Platform two_risc_platform() {
  Platform p;
  p.name = "2xRISC";
  ProcessingElement pe;
  pe.name = "risc0";
  pe.clock_hz = 100e6;
  pe.ops_per_cycle = 1.0;
  pe.active_power_w = 0.1;
  pe.idle_power_w = 0.01;
  p.pes = {pe, pe};
  p.pes[1].name = "risc1";
  p.interconnect.bandwidth_bytes_per_s = 100e6;
  p.interconnect.latency_s = 0.0;
  p.interconnect.energy_per_byte_j = 0.0;
  return p;
}

// A fork-join diamond: a -> {b, c} -> d.
TaskGraph diamond(double work = 1e6, double bytes = 0.0) {
  TaskGraph g("diamond");
  const auto a = g.add_task(simple_task("a", work));
  const auto b = g.add_task(simple_task("b", work));
  const auto c = g.add_task(simple_task("c", work));
  const auto d = g.add_task(simple_task("d", work));
  (void)g.add_edge(a, b, bytes);
  (void)g.add_edge(a, c, bytes);
  (void)g.add_edge(b, d, bytes);
  (void)g.add_edge(c, d, bytes);
  return g;
}

// A three-stage loop a -> b -> c whose c -> a edge carries `delay`
// tokens: a's iteration i reads c's iteration i - delay.
TaskGraph delay_loop(std::size_t delay, double work = 1e6) {
  TaskGraph g("loop");
  const auto a = g.add_task(simple_task("a", work));
  const auto b = g.add_task(simple_task("b", work));
  const auto c = g.add_task(simple_task("c", work));
  (void)g.add_edge(a, b, 1000.0);
  (void)g.add_edge(b, c, 1000.0);
  (void)g.add_edge(c, a, 1000.0, delay);
  return g;
}

// ---------------------------------------------------------------- taskgraph

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_TRUE(order.is_ok());
  const auto& topo = order.value();
  const auto pos = [&](TaskId t) {
    return std::find(topo.begin(), topo.end(), t) - topo.begin();
  };
  for (const auto& e : g.edges()) {
    EXPECT_LT(pos(e.src), pos(e.dst));
  }
}

TEST(TaskGraph, CycleDetected) {
  TaskGraph g("cyclic");
  const auto a = g.add_task(simple_task("a", 1));
  const auto b = g.add_task(simple_task("b", 1));
  (void)g.add_edge(a, b, 0);
  (void)g.add_edge(b, a, 0);
  EXPECT_FALSE(g.topological_order().is_ok());
  EXPECT_FALSE(g.is_acyclic());
}

TEST(TaskGraph, DelayEdgeClosesALegalCycle) {
  const auto loop = delay_loop(1);
  ASSERT_TRUE(loop.is_acyclic());
  EXPECT_EQ(loop.topological_order().value(), (std::vector<TaskId>{0, 1, 2}));
  // Precedence skips the delay edge; payloads and traffic keep it.
  EXPECT_TRUE(loop.predecessors(0).empty());
  EXPECT_TRUE(loop.successors(2).empty());
  EXPECT_EQ(loop.in_edges(0).size(), 1u);
  EXPECT_EQ(loop.out_edges(2).size(), 1u);
  EXPECT_DOUBLE_EQ(loop.total_traffic(), 3000.0);
  EXPECT_FALSE(delay_loop(0).is_acyclic());
}

TEST(TaskGraph, EdgeValidation) {
  TaskGraph g("g");
  const auto a = g.add_task(simple_task("a", 1));
  EXPECT_FALSE(g.add_edge(a, a, 0).is_ok());
  EXPECT_FALSE(g.add_edge(a, 99, 0).is_ok());
}

TEST(TaskGraph, Totals) {
  const auto g = diamond(2.0, 10.0);
  EXPECT_DOUBLE_EQ(g.total_work(), 8.0);
  EXPECT_DOUBLE_EQ(g.total_traffic(), 40.0);
}

TEST(TaskGraph, PredecessorsAndSuccessors) {
  const auto g = diamond();
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_TRUE(g.successors(3).empty());
}

// ----------------------------------------------------------------- platform

TEST(Platform, ExecTimeScalesWithClockAndAffinity) {
  ProcessingElement slow;
  slow.clock_hz = 100e6;
  ProcessingElement fast = slow;
  fast.clock_hz = 200e6;
  Task t = simple_task("t", 1e6);
  EXPECT_DOUBLE_EQ(slow.exec_seconds(t), 0.01);
  EXPECT_DOUBLE_EQ(fast.exec_seconds(t), 0.005);

  ProcessingElement dsp;
  dsp.kind = PeKind::kDsp;
  dsp.clock_hz = 100e6;
  t.affinity[PeKind::kDsp] = 4.0;
  EXPECT_DOUBLE_EQ(dsp.exec_seconds(t), 0.0025);
}

TEST(Platform, AcceleratorOnlyRunsItsTag) {
  ProcessingElement accel;
  accel.kind = PeKind::kAccelerator;
  accel.accel_tag = "dct";
  accel.clock_hz = 100e6;

  Task dct_task = simple_task("dct", 1e6);
  dct_task.accel_tag = "dct";
  dct_task.affinity[PeKind::kAccelerator] = 10.0;
  EXPECT_GT(accel.exec_seconds(dct_task), 0.0);

  Task vlc_task = simple_task("vlc", 1e6);
  EXPECT_LT(accel.exec_seconds(vlc_task), 0.0);  // cannot run

  Task me_task = simple_task("me", 1e6);
  me_task.accel_tag = "me";
  me_task.affinity[PeKind::kAccelerator] = 10.0;
  EXPECT_LT(accel.exec_seconds(me_task), 0.0);  // wrong engine
}

TEST(Platform, DspFallsBackToRiscAffinity) {
  ProcessingElement dsp;
  dsp.kind = PeKind::kDsp;
  dsp.clock_hz = 100e6;
  Task t = simple_task("control", 1e6);  // RISC affinity only
  EXPECT_DOUBLE_EQ(dsp.exec_seconds(t), 0.01);
}

TEST(Platform, CanRunDetectsImpossibleGraphs) {
  Platform p = two_risc_platform();
  TaskGraph g("g");
  Task t = simple_task("needs-accel", 1.0);
  t.accel_tag = "dct";
  t.affinity.clear();
  t.affinity[PeKind::kAccelerator] = 10.0;
  g.add_task(t);
  EXPECT_FALSE(p.can_run(g));
}

// ----------------------------------------------------------------- schedule

TEST(Schedule, SerialChainOnOnePe) {
  TaskGraph g("chain");
  const auto a = g.add_task(simple_task("a", 1e6));  // 10 ms at 100 MHz
  const auto b = g.add_task(simple_task("b", 1e6));
  (void)g.add_edge(a, b, 0.0);
  const auto p = two_risc_platform();
  const auto s = list_schedule(g, p, {0, 0});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.makespan_s, 0.02, 1e-9);
  EXPECT_NEAR(s.intervals[1].start_s, 0.01, 1e-9);
}

TEST(Schedule, ParallelBranchesOverlapOnTwoPes) {
  const auto g = diamond(1e6);  // each task 10 ms
  const auto p = two_risc_platform();
  // a,b,d on PE0; c on PE1: b and c overlap.
  const auto s = list_schedule(g, p, {0, 0, 1, 0});
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.makespan_s, 0.03, 1e-9);
  // All on one PE: fully serial.
  const auto serial = list_schedule(g, p, {0, 0, 0, 0});
  EXPECT_NEAR(serial.makespan_s, 0.04, 1e-9);
}

TEST(Schedule, CommunicationCostOnlyAcrossPes) {
  TaskGraph g("pair");
  const auto a = g.add_task(simple_task("a", 1e6));
  const auto b = g.add_task(simple_task("b", 1e6));
  (void)g.add_edge(a, b, 1e6);  // 10 ms on the 100 MB/s bus
  const auto p = two_risc_platform();
  const auto same = list_schedule(g, p, {0, 0});
  const auto cross = list_schedule(g, p, {0, 1});
  ASSERT_TRUE(same.feasible);
  ASSERT_TRUE(cross.feasible);
  EXPECT_NEAR(same.makespan_s, 0.02, 1e-9);     // no transfer
  EXPECT_NEAR(cross.makespan_s, 0.03, 1e-9);    // 10 ms transfer inserted
  EXPECT_NEAR(cross.interconnect_busy_s, 0.01, 1e-9);
}

TEST(Schedule, SharedBusSerializesTransfers) {
  // Two independent producer->consumer pairs crossing PEs at once: on a
  // single shared bus the second transfer waits.
  TaskGraph g("two-pairs");
  const auto a1 = g.add_task(simple_task("a1", 1e6));
  const auto b1 = g.add_task(simple_task("b1", 1e6));
  const auto a2 = g.add_task(simple_task("a2", 1e6));
  const auto b2 = g.add_task(simple_task("b2", 1e6));
  (void)g.add_edge(a1, b1, 1e6);
  (void)g.add_edge(a2, b2, 1e6);
  auto p = two_risc_platform();
  const auto bus = list_schedule(g, p, {0, 1, 0, 1});
  ASSERT_TRUE(bus.feasible);
  // a1,a2 serial on PE0 (0-10, 10-20 ms); transfers at 10-20 and 20-30;
  // b1 at 20-30, b2 at 30-40.
  EXPECT_NEAR(bus.makespan_s, 0.04, 1e-9);

  p.interconnect.kind = InterconnectKind::kMesh;
  p.interconnect.mesh_links = 4;
  const auto mesh = list_schedule(g, p, {0, 1, 0, 1});
  // Same link for both (same src/dst pair) -> same result here; but the
  // busiest-link metric must not exceed the bus case.
  EXPECT_LE(mesh.interconnect_busy_s, bus.interconnect_busy_s + 1e-12);
}

TEST(Schedule, EnergyAccountsActiveIdleAndBus) {
  TaskGraph g("one");
  g.add_task(simple_task("a", 1e6));  // 10 ms on PE0
  const auto p = two_risc_platform();
  const auto s = list_schedule(g, p, {0});
  ASSERT_TRUE(s.feasible);
  // PE0 active 10 ms at 0.1 W + PE1 idle 10 ms at 0.01 W.
  EXPECT_NEAR(s.energy_j, 0.01 * 0.1 + 0.01 * 0.01, 1e-9);
}

TEST(Schedule, ThroughputBoundedByBusiestResource) {
  const auto g = diamond(1e6);
  const auto p = two_risc_platform();
  const auto s = list_schedule(g, p, {0, 0, 1, 0});
  ASSERT_TRUE(s.feasible);
  // PE0 busy 30 ms, PE1 busy 10 ms -> II = 30 ms.
  EXPECT_NEAR(s.initiation_interval_s(), 0.03, 1e-9);
  EXPECT_NEAR(s.throughput_per_s(), 1.0 / 0.03, 1e-6);
}

TEST(Schedule, DelayEdgeLoopBoundsInitiationInterval) {
  const auto p = two_risc_platform();  // 1e6 ops = 10 ms per task
  for (const Mapping& m : {Mapping{0, 0, 0}, Mapping{0, 1, 0}}) {
    const auto s = list_schedule(delay_loop(1), p, m);
    ASSERT_TRUE(s.feasible);
    EXPECT_NEAR(s.makespan_s, 0.03, 1e-4);
    // Iteration i + 1's a waits for iteration i's c: the loop's summed
    // execution bounds the II even where no resource is busy that long
    // (PE0 is busy 20 ms under {0, 1, 0}).
    EXPECT_GE(s.recurrence_s, 0.03);
    EXPECT_GE(s.initiation_interval_s(), 0.03);
  }
  // The cross-PE transfers (10 us each) lengthen the loop.
  EXPECT_NEAR(list_schedule(delay_loop(1), p, {0, 1, 0}).recurrence_s, 0.03002,
              1e-9);
  // Two tokens let two iterations overlap: the loop bound halves and
  // the busiest PE bounds the II again.
  const auto s2 = list_schedule(delay_loop(2), p, {0, 1, 0});
  EXPECT_NEAR(s2.recurrence_s, 0.01501, 1e-9);
  EXPECT_NEAR(s2.initiation_interval_s(), 0.02, 1e-9);
}

TEST(Schedule, InfeasibleMappingReported) {
  const auto g = diamond();
  const auto p = two_risc_platform();
  EXPECT_FALSE(list_schedule(g, p, {0, 0, 9, 0}).feasible);  // bad PE index
  EXPECT_FALSE(list_schedule(g, p, {0, 0}).feasible);        // wrong size
}

// ------------------------------------------------------------------ mapping

Platform hetero_platform() {
  Platform p;
  p.name = "hetero";
  ProcessingElement risc;
  risc.name = "risc";
  risc.kind = PeKind::kRisc;
  risc.clock_hz = 100e6;
  risc.active_power_w = 0.2;
  ProcessingElement dsp;
  dsp.name = "dsp";
  dsp.kind = PeKind::kDsp;
  dsp.clock_hz = 100e6;
  dsp.ops_per_cycle = 2.0;
  dsp.active_power_w = 0.15;
  ProcessingElement accel;
  accel.name = "dct-engine";
  accel.kind = PeKind::kAccelerator;
  accel.accel_tag = "dct";
  accel.clock_hz = 100e6;
  accel.ops_per_cycle = 4.0;
  accel.active_power_w = 0.1;
  p.pes = {risc, dsp, accel};
  p.interconnect.bandwidth_bytes_per_s = 1e9;
  return p;
}

TaskGraph pipeline_graph() {
  TaskGraph g("pipeline");
  Task dct = simple_task("dct", 4e6);
  dct.accel_tag = "dct";
  dct.affinity[PeKind::kDsp] = 4.0;
  dct.affinity[PeKind::kAccelerator] = 16.0;
  Task filt = simple_task("filter", 2e6);
  filt.affinity[PeKind::kDsp] = 4.0;
  Task vlc = simple_task("vlc", 1e6);
  const auto a = g.add_task(filt);
  const auto b = g.add_task(dct);
  const auto c = g.add_task(vlc);
  (void)g.add_edge(a, b, 1e4);
  (void)g.add_edge(b, c, 1e4);
  return g;
}

TEST(Mapping, AllMappersProduceFeasibleSchedules) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  for (const auto kind : {MapperKind::kRoundRobin, MapperKind::kGreedyLoadBalance,
                          MapperKind::kHeft, MapperKind::kSimulatedAnnealing}) {
    const auto r = map_graph(g, p, kind);
    EXPECT_TRUE(r.schedule.feasible) << to_string(kind);
    EXPECT_EQ(r.mapping.size(), g.task_count());
  }
}

TEST(Mapping, HeftUsesAcceleratorForDct) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  const auto r = map_graph(g, p, MapperKind::kHeft);
  ASSERT_TRUE(r.schedule.feasible);
  EXPECT_EQ(r.mapping[1], 2u);  // dct task on the dct engine
}

TEST(Mapping, HeftBeatsRoundRobin) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  const auto rr = map_graph(g, p, MapperKind::kRoundRobin);
  const auto heft = map_graph(g, p, MapperKind::kHeft);
  ASSERT_TRUE(rr.schedule.feasible);
  ASSERT_TRUE(heft.schedule.feasible);
  EXPECT_LE(heft.schedule.makespan_s, rr.schedule.makespan_s * 1.001);
}

TEST(Mapping, AnnealingNeverWorseThanGreedySeed) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  const auto greedy = map_graph(g, p, MapperKind::kGreedyLoadBalance);
  AnnealingParams params;
  params.iterations = 500;
  params.seed = 3;
  const auto sa = map_graph(g, p, MapperKind::kSimulatedAnnealing, params);
  ASSERT_TRUE(sa.schedule.feasible);
  EXPECT_LE(sa.schedule.makespan_s, greedy.schedule.makespan_s + 1e-12);
}

TEST(Mapping, AnnealingDeterministicForSeed) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  AnnealingParams params;
  params.iterations = 300;
  params.seed = 7;
  const auto a = map_graph(g, p, MapperKind::kSimulatedAnnealing, params);
  const auto b = map_graph(g, p, MapperKind::kSimulatedAnnealing, params);
  EXPECT_EQ(a.mapping, b.mapping);
}

TEST(Mapping, EnergyWeightedAnnealingTradesSpeedForEnergy) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  AnnealingParams fast;
  fast.iterations = 1500;
  fast.seed = 11;
  AnnealingParams frugal = fast;
  frugal.energy_weight = 1000.0;  // heavily punish joules
  const auto speed = map_graph(g, p, MapperKind::kSimulatedAnnealing, fast);
  const auto energy = map_graph(g, p, MapperKind::kSimulatedAnnealing, frugal);
  ASSERT_TRUE(speed.schedule.feasible);
  ASSERT_TRUE(energy.schedule.feasible);
  EXPECT_LE(energy.schedule.energy_j, speed.schedule.energy_j * 1.001);
}

TEST(Mapping, UpwardRanksDecreaseAlongEdges) {
  const auto g = pipeline_graph();
  const auto p = hetero_platform();
  const auto ranks = upward_ranks(g, p);
  for (const auto& e : g.edges()) {
    EXPECT_GT(ranks[e.src], ranks[e.dst]);
  }
}

}  // namespace
}  // namespace mmsoc::mpsoc
