// Serial / parallel / virtual equivalence (paper §IV intro: "we thoroughly
// verified that the sequential and parallel versions yield the exact same
// results ... same number of stand trees, intermediate states, and dead
// ends", and identical stands).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::StopReason;

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct EqCase {
  std::size_t n_taxa;
  std::size_t n_loci;
  double missing;
  std::uint64_t seed;
  bool empirical;
};

// gtest prints a parameter it has no printer for as its raw bytes, padding
// included, and ctest names each case after that print: a stable printer
// keeps the test names the same from build to build.
void PrintTo(const EqCase& c, std::ostream* os) {
  *os << (c.empirical ? "empirical" : "simulated") << "_" << c.n_taxa
      << "taxa_seed" << c.seed;
}

class Equivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(Equivalence, AllDriversAgreeOnCountsAndStand) {
  const auto p = GetParam();
  datagen::Dataset ds;
  if (p.empirical) {
    datagen::EmpiricalLikeParams ep;
    ep.n_taxa = p.n_taxa;
    ep.n_loci = p.n_loci;
    ep.seed = p.seed;
    ds = datagen::make_empirical_like(ep);
  } else {
    datagen::SimulatedParams sp;
    sp.n_taxa = p.n_taxa;
    sp.n_loci = p.n_loci;
    sp.missing_fraction = p.missing;
    sp.seed = p.seed;
    ds = datagen::make_simulated(sp);
  }

  Options opts;
  opts.collect_trees = true;
  const auto problem = core::build_problem(ds.constraints, opts);

  const Result serial = core::run_serial(problem, opts);
  ASSERT_EQ(serial.reason, StopReason::kCompleted);
  const auto expected_trees = sorted(serial.trees);

  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const Result par = parallel::run_parallel(problem, opts, threads);
    EXPECT_EQ(par.stand_trees, serial.stand_trees) << "threads=" << threads;
    EXPECT_EQ(par.intermediate_states, serial.intermediate_states)
        << "threads=" << threads;
    EXPECT_EQ(par.dead_ends, serial.dead_ends) << "threads=" << threads;
    EXPECT_EQ(par.reason, StopReason::kCompleted);
    EXPECT_EQ(sorted(par.trees), expected_trees) << "threads=" << threads;

    const Result vir = vthread::run_virtual(problem, opts, threads);
    EXPECT_EQ(vir.stand_trees, serial.stand_trees) << "vthreads=" << threads;
    EXPECT_EQ(vir.intermediate_states, serial.intermediate_states)
        << "vthreads=" << threads;
    EXPECT_EQ(vir.dead_ends, serial.dead_ends) << "vthreads=" << threads;
    EXPECT_EQ(sorted(vir.trees), expected_trees) << "vthreads=" << threads;
    if (serial.intermediate_states > 0) {
      EXPECT_GT(vir.virtual_makespan, 0.0);
    }

    const Result stat = parallel::run_static_split(problem, opts, threads);
    EXPECT_EQ(stat.stand_trees, serial.stand_trees);
    EXPECT_EQ(stat.intermediate_states, serial.intermediate_states);
    EXPECT_EQ(sorted(stat.trees), expected_trees);
  }
}

std::vector<EqCase> eq_cases() {
  std::vector<EqCase> cases;
  std::uint64_t seed = 42;
  for (const std::size_t n : {8u, 12u, 16u}) {
    for (const double missing : {0.3, 0.5}) {
      cases.push_back({n, 4, missing, seed++, false});
      cases.push_back({n, 4, missing, seed++, true});
    }
  }
  // A couple of larger ones with real search effort.
  cases.push_back({24, 6, 0.45, 7001, false});
  cases.push_back({24, 6, 0.45, 7002, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Instances, Equivalence,
                         ::testing::ValuesIn(eq_cases()));

TEST(VirtualDeterminism, SameSeedSameMakespan) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 16;
  sp.n_loci = 5;
  sp.missing_fraction = 0.45;
  sp.seed = 1234;
  const auto ds = datagen::make_simulated(sp);
  Options opts;
  const auto problem = core::build_problem(ds.constraints, opts);
  const auto a = vthread::run_virtual(problem, opts, 4);
  const auto b = vthread::run_virtual(problem, opts, 4);
  EXPECT_EQ(a.virtual_makespan, b.virtual_makespan);
  EXPECT_EQ(a.stand_trees, b.stand_trees);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
}

}  // namespace
}  // namespace gentrius
