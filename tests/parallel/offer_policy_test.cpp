// Adaptive offer policy (Options::OfferPolicy::kAdaptiveGW): the online
// Galton–Watson granularity controller may change *which* frames become
// tasks, but never what is enumerated. These tests pin
//   * the GW estimator's recurrence and its lazy refit,
//   * policy equivalence: identical counts and identical canonical stand
//     sets across serial / real pool / virtual simulator, both schedulers,
//     both policies, N_t in {2,4,8},
//   * bit-identical virtual-time determinism under the adaptive policy,
//   * the starvation regression on the skewed hand-off-flood family: with
//     the policy live (offers actually suppressed) the pool must not run
//     slower than the paper's fixed rule,
//   * the lifted splitting-rule knobs (offer_min_remaining,
//     offer_split_fraction) and the offer counters in core::Result.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/offer_policy.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::GwOfferModel;
using core::OfferPolicy;
using core::Options;
using core::Result;
using core::Scheduler;
using core::StopReason;

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

Options options_for(const datagen::Dataset& ds) {
  Options o;
  if (ds.forced_initial_constraint) {
    o.select_initial_tree = false;
    o.initial_constraint = *ds.forced_initial_constraint;
  }
  if (!ds.forced_insertion_order.empty()) {
    o.dynamic_taxon_order = false;
    o.insertion_order = ds.forced_insertion_order;
  }
  return o;
}

// ---- GW estimator ----------------------------------------------------------

TEST(GwOfferModel, PriorOnlyPredictionFollowsRecurrence) {
  GwOfferModel model(/*max_remaining=*/4);
  // No observations: m(r) = prior everywhere, so W(r) = 2 * (1 + W(r-1)):
  // W(1) = 2, W(2) = 6, W(3) = 14, and a branch of a stratum-r frame is
  // worth 1 + W(r-1).
  EXPECT_DOUBLE_EQ(model.expected_branch_states(1), 1.0);
  EXPECT_DOUBLE_EQ(model.expected_branch_states(2), 3.0);
  EXPECT_DOUBLE_EQ(model.expected_branch_states(3), 7.0);
  EXPECT_DOUBLE_EQ(model.expected_branch_states(4), 15.0);
}

TEST(GwOfferModel, ConvergesToObservedBranching) {
  GwOfferModel model(/*max_remaining=*/3);
  for (int i = 0; i < 10'000; ++i)
    for (std::size_t r = 1; r <= 3; ++r) model.record(r, 3);
  // Prior washed out: m -> 3, so W(1)=3, W(2)=12 and branch values follow.
  EXPECT_NEAR(model.offspring_mean(1), 3.0, 1e-3);
  EXPECT_NEAR(model.expected_branch_states(2), 4.0, 1e-2);
  EXPECT_NEAR(model.expected_branch_states(3), 13.0, 5e-2);
}

TEST(GwOfferModel, DeadEndsShrinkTheForecast) {
  GwOfferModel model(/*max_remaining=*/2);
  for (int i = 0; i < 1'000; ++i) model.record(1, 0);  // stratum 1 dead-ends
  // W(1) -> 0: a branch of a stratum-2 frame is worth just its own insert.
  EXPECT_NEAR(model.expected_branch_states(2), 1.0, 1e-2);
}

TEST(GwOfferModel, RefitIsLazyAndDeterministic) {
  GwOfferModel model(/*max_remaining=*/2);
  const double before = model.expected_branch_states(2);  // fits the prior
  for (int i = 0; i < 10; ++i) model.record(1, 6);
  // Fewer than kGwRefitPeriod new samples: the table must not move.
  EXPECT_DOUBLE_EQ(model.expected_branch_states(2), before);
  for (std::uint32_t i = 0; i < core::kGwRefitPeriod; ++i) model.record(1, 6);
  EXPECT_GT(model.expected_branch_states(2), before);
}

// ---- policy equivalence ----------------------------------------------------

class OfferPolicyEquivalence : public ::testing::TestWithParam<OfferPolicy> {};

TEST_P(OfferPolicyEquivalence, CountsAndStandSetMatchSerialEverywhere) {
  // The flood family is the adversarial case: an offer-eligible frame at
  // every state, so the two policies schedule very differently.
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/3);
  Options opts = options_for(ds);
  opts.collect_trees = true;
  opts.offer_policy = GetParam();
  const auto problem = core::build_problem(ds.constraints, opts);

  const Result serial = core::run_serial(problem, opts);
  ASSERT_EQ(serial.reason, StopReason::kCompleted);
  ASSERT_GT(serial.stand_trees, 100u);
  const auto expected_trees = sorted(serial.trees);

  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options o = opts;
    o.scheduler = sched;
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const Result real = parallel::run_parallel(problem, o, threads);
      const Result sim = vthread::run_virtual(problem, o, threads);
      for (const Result* r : {&real, &sim}) {
        EXPECT_EQ(r->stand_trees, serial.stand_trees)
            << to_string(sched) << " threads=" << threads;
        EXPECT_EQ(r->intermediate_states, serial.intermediate_states)
            << to_string(sched) << " threads=" << threads;
        EXPECT_EQ(r->dead_ends, serial.dead_ends)
            << to_string(sched) << " threads=" << threads;
        EXPECT_EQ(sorted(r->trees), expected_trees)
            << to_string(sched) << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, OfferPolicyEquivalence,
                         ::testing::Values(OfferPolicy::kPaperFixed,
                                           OfferPolicy::kAdaptiveGW),
                         [](const auto& info) {
                           return info.param == OfferPolicy::kPaperFixed
                                      ? "PaperFixed"
                                      : "AdaptiveGW";
                         });

// ---- virtual-time determinism ---------------------------------------------

TEST(AdaptiveOfferPolicy, VirtualRunsAreBitIdentical) {
  const auto ds = datagen::make_flood_instance(/*depth=*/7, /*seed=*/1);
  Options opts = options_for(ds);
  opts.offer_policy = OfferPolicy::kAdaptiveGW;
  const auto problem = core::build_problem(ds.constraints, opts);
  for (const Scheduler sched :
       {Scheduler::kCentralQueue, Scheduler::kDistributedDeques}) {
    Options o = opts;
    o.scheduler = sched;
    const Result a = vthread::run_virtual(problem, o, 8);
    const Result b = vthread::run_virtual(problem, o, 8);
    EXPECT_EQ(a.virtual_makespan, b.virtual_makespan) << to_string(sched);
    EXPECT_EQ(a.tasks_offered, b.tasks_offered) << to_string(sched);
    EXPECT_EQ(a.sched.offers_evaluated, b.sched.offers_evaluated);
    EXPECT_EQ(a.sched.offers_suppressed, b.sched.offers_suppressed);
    EXPECT_EQ(a.sched.adopted_actual_states, b.sched.adopted_actual_states);
  }
}

// ---- starvation regression on the skewed family ---------------------------

TEST(AdaptiveOfferPolicy, DoesNotStarveTheFloodedPool) {
  const auto ds = datagen::make_flood_instance(/*depth=*/9, /*seed=*/2);
  Options opts = options_for(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  for (const std::size_t threads : {8UL, 16UL}) {
    Options fixed = opts, adaptive = opts;
    fixed.offer_policy = OfferPolicy::kPaperFixed;
    adaptive.offer_policy = OfferPolicy::kAdaptiveGW;
    const Result rf = vthread::run_virtual(problem, fixed, threads);
    const Result ra = vthread::run_virtual(problem, adaptive, threads);
    ASSERT_EQ(ra.reason, StopReason::kCompleted);
    // The policy is genuinely live on this family...
    EXPECT_GT(ra.sched.offers_evaluated, 0u);
    EXPECT_GT(ra.sched.offers_suppressed, 0u);
    // ...suppression must starve nobody: within 2% of the fixed rule even
    // under the rejection-free historical cost model (where the fixed
    // rule's flooding is cheapest), at every pool size.
    EXPECT_LE(ra.virtual_makespan, rf.virtual_makespan * 1.02)
        << "threads=" << threads;
    // Suppressed offers never touch the sink, so the adaptive run cannot
    // bounce off the full ring more often than the fixed rule does.
    EXPECT_LE(ra.sched.queue_full_rejections, rf.sched.queue_full_rejections)
        << "threads=" << threads;
  }
}

// ---- lifted splitting-rule knobs ------------------------------------------

TEST(OfferPolicyKnobs, MinRemainingDisablesAllOffers) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/1);
  Options opts = options_for(ds);
  opts.offer_min_remaining = 1'000;  // no frame ever qualifies
  const auto problem = core::build_problem(ds.constraints, opts);
  const Result serial = core::run_serial(problem, opts);
  for (const OfferPolicy policy :
       {OfferPolicy::kPaperFixed, OfferPolicy::kAdaptiveGW}) {
    Options o = opts;
    o.offer_policy = policy;
    const Result r = vthread::run_virtual(problem, o, 4);
    EXPECT_EQ(r.tasks_offered, 0u);
    EXPECT_EQ(r.sched.offers_evaluated, 0u);
    EXPECT_EQ(r.stand_trees, serial.stand_trees);
  }
}

TEST(OfferPolicyKnobs, SplitFractionKeepsCountsExact) {
  const auto ds = datagen::make_flood_instance(/*depth=*/6, /*seed=*/2);
  Options opts = options_for(ds);
  const auto problem = core::build_problem(ds.constraints, opts);
  const Result serial = core::run_serial(problem, opts);
  for (const double fraction : {0.25, 0.5, 0.75}) {
    Options o = opts;
    o.offer_split_fraction = fraction;
    const Result r = vthread::run_virtual(problem, o, 4);
    EXPECT_EQ(r.stand_trees, serial.stand_trees) << "fraction=" << fraction;
    EXPECT_EQ(r.intermediate_states, serial.intermediate_states)
        << "fraction=" << fraction;
    EXPECT_EQ(r.dead_ends, serial.dead_ends) << "fraction=" << fraction;
  }
}

TEST(OfferPolicyKnobs, AdaptiveStatsFlowThroughResult) {
  const auto ds = datagen::make_flood_instance(/*depth=*/7, /*seed=*/4);
  Options opts = options_for(ds);
  opts.offer_policy = OfferPolicy::kAdaptiveGW;
  const auto problem = core::build_problem(ds.constraints, opts);
  const Result r = vthread::run_virtual(problem, opts, 8);
  // Every candidate frame was evaluated; accepted + suppressed + rejected
  // pushes partition the evaluations.
  EXPECT_GT(r.sched.offers_evaluated, 0u);
  EXPECT_GE(r.sched.offers_evaluated,
            r.sched.offers_suppressed + r.tasks_offered);
  // Adopted tasks carried GW predictions and the replay accounting closed.
  EXPECT_GT(r.sched.adopted_predicted_states, 0.0);
  EXPECT_GT(r.sched.adopted_actual_states, 0u);
  EXPECT_GT(r.sched.offer_prediction_error(), 0.0);
  // Fixed-policy runs keep the adaptive counters silent.
  Options fixed = opts;
  fixed.offer_policy = OfferPolicy::kPaperFixed;
  const Result rf = vthread::run_virtual(problem, fixed, 8);
  EXPECT_EQ(rf.sched.offers_evaluated, 0u);
  EXPECT_EQ(rf.sched.offers_suppressed, 0u);
}

}  // namespace
}  // namespace gentrius
