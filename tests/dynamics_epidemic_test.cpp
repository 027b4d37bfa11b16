#include "src/dynamics/epidemic.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"

namespace digg::dynamics {
namespace {

graph::Digraph ring(std::size_t n) {
  graph::DigraphBuilder b(n);
  for (graph::NodeId u = 0; u < n; ++u)
    b.add_follow(u, static_cast<graph::NodeId>((u + 1) % n));
  return b.build();
}

TEST(Sis, NoInfectionRateDiesOut) {
  stats::Rng rng(1);
  EpidemicParams params;
  params.infection_rate = 0.0;
  params.recovery_rate = 0.5;
  params.max_steps = 200;
  const EpidemicResult r = sis_epidemic(ring(100), params, rng);
  EXPECT_EQ(r.infected_over_time.back(), 0u);
  EXPECT_LT(r.final_metric, 0.05);
}

TEST(Sis, NoRecoverySaturatesComponent) {
  stats::Rng rng(2);
  EpidemicParams params;
  params.infection_rate = 0.8;
  params.recovery_rate = 0.0;
  params.max_steps = 300;
  const EpidemicResult r = sis_epidemic(ring(100), params, rng);
  EXPECT_EQ(r.infected_over_time.back(), 100u);
  EXPECT_GT(r.final_metric, 0.9);
}

TEST(Sis, InitialSeedCountRespected) {
  stats::Rng rng(3);
  EpidemicParams params;
  params.initial_infected = 7;
  const EpidemicResult r = sis_epidemic(ring(50), params, rng);
  EXPECT_EQ(r.infected_over_time.front(), 7u);
}

TEST(Epidemic, RejectsBadParameters) {
  stats::Rng rng(1);
  EpidemicParams params;
  params.infection_rate = 1.5;
  EXPECT_THROW(sis_epidemic(ring(10), params, rng), std::invalid_argument);
  EXPECT_THROW(sis_epidemic(graph::DigraphBuilder(0).build(), {}, rng),
               std::invalid_argument);
}

TEST(SisThreshold, RingFormula) {
  // Undirected projection of the directed ring: every node has degree 2
  // (one friend + one fan), so <k>/<k^2> = 2/4 = 0.5.
  EXPECT_DOUBLE_EQ(sis_threshold_estimate(ring(50)), 0.5);
}

TEST(SisThreshold, ScaleFreeBelowHomogeneous) {
  // Heavy-tailed degree distributions push <k^2> up and the threshold down
  // (Pastor-Satorras & Vespignani) — the §6 observation.
  stats::Rng rng(6);
  graph::PreferentialAttachmentParams pa;
  pa.node_count = 2000;
  pa.mean_out_degree = 3.0;
  const graph::Digraph sf = graph::preferential_attachment(pa, rng);
  const graph::Digraph er = graph::erdos_renyi(2000, 3.0 / 1999.0, rng);
  EXPECT_LT(sis_threshold_estimate(sf), sis_threshold_estimate(er));
}

TEST(SisThreshold, EmptyGraphThrows) {
  EXPECT_THROW(sis_threshold_estimate(graph::DigraphBuilder(0).build()),
               std::invalid_argument);
}

TEST(PrevalenceSweep, MonotoneAcrossThreshold) {
  stats::Rng rng(7);
  const graph::Digraph g = graph::erdos_renyi(400, 8.0 / 399.0, rng);
  const auto sweep =
      prevalence_sweep(g, {0.02, 0.6}, /*recovery=*/0.5, /*trials=*/3,
                       /*max_steps=*/150, rng);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].first, 0.02);
  EXPECT_LT(sweep[0].second, sweep[1].second);
  EXPECT_GT(sweep[1].second, 0.1);  // well above threshold: endemic
}

TEST(PrevalenceSweep, RejectsZeroTrials) {
  stats::Rng rng(1);
  EXPECT_THROW(prevalence_sweep(ring(10), {0.1}, 0.5, 0, 10, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace digg::dynamics
