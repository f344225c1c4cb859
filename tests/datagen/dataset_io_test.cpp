#include <gtest/gtest.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "datagen/dataset.hpp"
#include "datagen/dataset_io.hpp"
#include "gentrius/serial.hpp"
#include "phylo/topology.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gentrius::datagen {
namespace {

/// A temporary directory unique to the running test and process. ctest runs
/// every case in its own process, in parallel under -j, so a shared path
/// would let one case's clean-up delete the files another case is reading.
std::filesystem::path unique_temp_dir() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         ("gentrius_" + std::string(test->test_suite_name()) + "_" +
          test->name() + "_" + std::to_string(::getpid()));
}

class DatasetIo : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_dir();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(DatasetIo, RoundTripPreservesEverything) {
  SimulatedParams p;
  p.n_taxa = 18;
  p.n_loci = 4;
  p.missing_fraction = 0.4;
  p.seed = 321;
  const auto original = make_simulated(p);
  write_dataset(original, dir_.string());

  const auto loaded = load_dataset(dir_.string());
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.taxa.size(), original.taxa.size());
  EXPECT_EQ(loaded.pam.to_text(loaded.taxa), original.pam.to_text(original.taxa));
  ASSERT_EQ(loaded.constraints.size(), original.constraints.size());
  // Taxon ids may be permuted (PAM row order defines them on load); compare
  // via the stand itself, which is label-invariant in size.
  const auto a = core::run_serial(original.constraints, {});
  const auto b = core::run_serial(loaded.constraints, {});
  EXPECT_EQ(a.stand_trees, b.stand_trees);
  EXPECT_EQ(a.intermediate_states, b.intermediate_states);
  EXPECT_TRUE(phylo::displays(loaded.species_tree, loaded.constraints[0]));
}

TEST_F(DatasetIo, ConstraintOnlyDatasets) {
  Dataset ds = make_plateau_instance(3, 0);
  write_dataset(ds, dir_.string());
  const auto loaded = load_dataset(dir_.string());
  EXPECT_EQ(loaded.constraints.size(), ds.constraints.size());
  EXPECT_EQ(loaded.pam.taxon_count(), 0u);
  EXPECT_EQ(loaded.species_tree.leaf_count(), 0u);
}

TEST_F(DatasetIo, RoundTripPreservesEngineOverrides) {
  // Crafted instances only reproduce their figure with the forced initial
  // tree and insertion order; both must survive a write/load cycle.
  const Dataset ds = make_plateau_instance(4, 0);
  ASSERT_TRUE(ds.forced_initial_constraint.has_value());
  ASSERT_FALSE(ds.forced_insertion_order.empty());
  write_dataset(ds, dir_.string());

  const auto loaded = load_dataset(dir_.string());
  EXPECT_EQ(loaded.forced_initial_constraint, ds.forced_initial_constraint);
  // Ids may be permuted on load; the label sequence is the invariant.
  ASSERT_EQ(loaded.forced_insertion_order.size(),
            ds.forced_insertion_order.size());
  for (std::size_t i = 0; i < ds.forced_insertion_order.size(); ++i)
    EXPECT_EQ(loaded.taxa.name(loaded.forced_insertion_order[i]),
              ds.taxa.name(ds.forced_insertion_order[i]));
}

TEST_F(DatasetIo, PamAndConstraintsRoundTripBitForBit) {
  SimulatedParams p;
  p.n_taxa = 12;
  p.n_loci = 3;
  p.seed = 9;
  const auto ds = make_simulated(p);
  write_dataset(ds, dir_.string());
  const auto loaded = load_dataset(dir_.string());

  // Same shape, same cells under the (possibly permuted) label mapping.
  ASSERT_EQ(loaded.pam.taxon_count(), ds.pam.taxon_count());
  ASSERT_EQ(loaded.pam.locus_count(), ds.pam.locus_count());
  for (phylo::TaxonId t = 0; t < ds.pam.taxon_count(); ++t) {
    const auto lt = loaded.taxa.id_of(ds.taxa.name(t));
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      EXPECT_EQ(loaded.pam.present(lt, l), ds.pam.present(t, l));
  }
  // Writing the loaded dataset again reproduces the files byte for byte.
  const auto dir2 = dir_.string() + "_again";
  write_dataset(loaded, dir2);
  for (const char* file : {"constraints.nwk", "matrix.pam", "name.txt"}) {
    std::ifstream a(dir_ / file), b(std::filesystem::path(dir2) / file);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << file;
  }
  std::filesystem::remove_all(dir2);
}

TEST_F(DatasetIo, MissingDirectoryFails) {
  EXPECT_THROW(load_dataset((dir_ / "nonexistent").string()),
               support::InvalidInput);
}

TEST(DatasetIoFuzz, CorruptedFilesThrowLibraryErrors) {
  // Every file of a full dataset (species tree, PAM, overrides), then one
  // file truncated or mutated per round: loading must either succeed or
  // throw support::Error — never another exception type, never a crash
  // (the ASan job runs this too).
  const auto dir = unique_temp_dir();
  std::filesystem::remove_all(dir);
  SimulatedParams p;
  p.n_taxa = 10;
  p.n_loci = 3;
  p.seed = 17;
  Dataset ds = make_simulated(p);
  ds.forced_initial_constraint = 1;
  ds.forced_insertion_order = {2, 5, 7};
  write_dataset(ds, dir.string());
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    files[entry.path().filename().string()] = text.str();
  }
  ASSERT_EQ(files.size(), 5u);
  ASSERT_TRUE(files.count("overrides.txt"));

  support::Rng rng(0xda7a);
  const std::string alphabet = "(),;:' \n\t-01x";
  int loaded = 0;
  int rejected = 0;
  for (int round = 0; round < 600; ++round) {
    auto corrupted = files;
    auto it = corrupted.begin();
    std::advance(it, static_cast<long>(rng.below(corrupted.size())));
    std::string& text = it->second;
    if (rng.bernoulli(0.3)) {
      text.resize(rng.below(text.size() + 1));
    } else {
      const std::size_t mutations = 1 + rng.below(4);
      for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
        const std::size_t pos = rng.below(text.size());
        const char c = alphabet[rng.below(alphabet.size())];
        switch (rng.below(3)) {
          case 0:
            text.erase(pos, 1);
            break;
          case 1:
            text.insert(pos, 1, c);
            break;
          default:
            text[pos] = c;
            break;
        }
      }
    }
    for (const auto& [name, content] : corrupted)
      std::ofstream(dir / name) << content;

    SCOPED_TRACE("round " + std::to_string(round) + ", " + it->first);
    try {
      const Dataset got = load_dataset(dir.string());
      for (const auto& tree : got.constraints) tree.validate();
      got.species_tree.validate();
      ++loaded;
    } catch (const support::InternalError& e) {
      ADD_FAILURE() << "internal error: " << e.what();
    } catch (const support::Error&) {
      ++rejected;  // expected for most corruptions
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-library exception: " << e.what();
    }
  }
  // Both outcomes occur, so the rounds reach past the first parse error.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gentrius::datagen
