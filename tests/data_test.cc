#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "data/answers.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "util/statusor.h"

namespace ptk {
namespace {

TEST(SynDataset, MatchesRecipe) {
  data::SynOptions opts;
  opts.num_objects = 500;
  opts.seed = 4;
  const model::Database db = data::MakeSynDataset(opts);
  ASSERT_TRUE(db.finalized());
  EXPECT_EQ(db.num_objects(), 500);
  double instances = 0.0;
  for (const auto& obj : db.objects()) {
    instances += obj.num_instances();
    EXPECT_NEAR(obj.TotalProb(), 1.0, 1e-9);
    // Cluster width: all values of one object within the configured span.
    const double lo = obj.instances().front().value;
    const double hi = obj.instances().back().value;
    EXPECT_LE(hi - lo, opts.cluster_width + 1e-9);
    EXPECT_GE(lo, 0.0);
    EXPECT_LE(hi, opts.value_range);
  }
  EXPECT_NEAR(instances / db.num_objects(), opts.avg_instances, 1.0);
}

TEST(SynDataset, DeterministicPerSeed) {
  data::SynOptions opts;
  opts.num_objects = 50;
  const model::Database a = data::MakeSynDataset(opts);
  const model::Database b = data::MakeSynDataset(opts);
  ASSERT_EQ(a.num_instances(), b.num_instances());
  for (int i = 0; i < a.num_instances(); ++i) {
    EXPECT_DOUBLE_EQ(a.sorted_instances()[i].value,
                     b.sorted_instances()[i].value);
    EXPECT_DOUBLE_EQ(a.sorted_instances()[i].prob,
                     b.sorted_instances()[i].prob);
  }
}

TEST(AgeDataset, GroundTruthAndHistogramShape) {
  data::AgeOptions opts;
  opts.num_objects = 100;
  const data::AgeDataset age = data::MakeAgeDataset(opts);
  ASSERT_EQ(age.db.num_objects(), 100);
  ASSERT_EQ(age.true_ages.size(), 100u);
  for (int o = 0; o < 100; ++o) {
    const auto& obj = age.db.object(o);
    EXPECT_LE(obj.num_instances(), opts.max_instances);
    EXPECT_GE(obj.num_instances(), 1);
    // The histogram concentrates around the perceived age, which itself
    // scatters around the truth with the photo bias.
    EXPECT_NEAR(obj.ExpectedValue(), age.true_ages[o],
                3.5 * (opts.guess_stddev + opts.photo_bias_stddev));
    EXPECT_GE(age.true_ages[o], opts.min_age);
    EXPECT_LE(age.true_ages[o], opts.max_age);
  }
}

TEST(ImdbDataset, RankScoresAndCardinalities) {
  data::ImdbOptions opts;
  opts.num_movies = 200;
  const model::Database db = data::MakeImdbDataset(opts);
  EXPECT_EQ(db.num_objects(), 200);
  for (const auto& obj : db.objects()) {
    EXPECT_GE(obj.num_instances(), 1);
    EXPECT_LE(obj.num_instances(), opts.max_ratings);
    for (const auto& inst : obj.instances()) {
      EXPECT_GE(inst.value, 0.0);   // rating 10 -> rank score 0
      EXPECT_LE(inst.value, 9.0);   // rating 1 -> rank score 9
    }
  }
}

TEST(Csv, RoundTrip) {
  data::SynOptions opts;
  opts.num_objects = 30;
  opts.seed = 12;
  const model::Database original = data::MakeSynDataset(opts);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ptk_csv_test.csv").string();
  ASSERT_TRUE(data::SaveCsv(original, path).ok());
  util::StatusOr<model::Database> loaded_or = data::LoadCsv(path);
  ASSERT_TRUE(loaded_or.ok());
  const model::Database loaded = *std::move(loaded_or);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.num_objects(), original.num_objects());
  ASSERT_EQ(loaded.num_instances(), original.num_instances());
  for (int o = 0; o < original.num_objects(); ++o) {
    const auto& a = original.object(o);
    const auto& b = loaded.object(o);
    ASSERT_EQ(a.num_instances(), b.num_instances());
    for (int i = 0; i < a.num_instances(); ++i) {
      EXPECT_DOUBLE_EQ(a.instance(i).value, b.instance(i).value);
      EXPECT_NEAR(a.instance(i).prob, b.instance(i).prob, 1e-15);
    }
  }
}

TEST(Csv, RoundTripIsBitIdentical) {
  // Finalize is idempotent, so a saved catalog loads back to the same
  // bits (SYN m=1600, seed 1: a second renormalization used to move 570
  // of its 4 800 probabilities).
  data::SynOptions opts;
  opts.num_objects = 1600;
  opts.value_range = 3200.0;
  opts.seed = 1;
  const model::Database original = data::MakeSynDataset(opts);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ptk_csv_bits_test.csv")
          .string();
  ASSERT_TRUE(data::SaveCsv(original, path).ok());
  util::StatusOr<model::Database> loaded_or = data::LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded_or.ok());
  const model::Database& loaded = *loaded_or;
  ASSERT_EQ(loaded.num_instances(), original.num_instances());
  int moved = 0;
  for (int o = 0; o < original.num_objects(); ++o) {
    const auto& a = original.object(o).instances();
    const auto& b = loaded.object(o).instances();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].value, b[i].value);
      moved += a[i].prob != b[i].prob;
    }
  }
  EXPECT_EQ(moved, 0);
}

TEST(Csv, LoadRejectsMalformedInput) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ptk_bad_csv.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("oid,value,prob\n0,1.0\n", f);  // missing column
    std::fclose(f);
  }
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(data::LoadCsv("/nonexistent/file.csv").ok());
}

TEST(Csv, MissingHeaderIsAnErrorNotADroppedRow) {
  // The seed parser discarded the first line unconditionally, silently
  // eating a data row of headerless files. Now: headered mode rejects the
  // file with a pointer at line 1, and headerless mode keeps every row.
  const std::string text = "0,1.5,0.5\n0,2.5,0.5\n1,2.0,1.0\n";
  const util::Status s =
      data::LoadCsvFromString(text, {}, "in.csv").status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing header"), std::string::npos);
  EXPECT_NE(s.message().find("in.csv:1"), std::string::npos);

  data::CsvOptions headerless;
  headerless.require_header = false;
  util::StatusOr<model::Database> db =
      data::LoadCsvFromString(text, headerless);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_objects(), 2);
  EXPECT_EQ(db->object(0).num_instances(), 2);  // first row not dropped
}

TEST(Csv, RejectsTrailingGarbageAfterThirdField) {
  const util::Status s =
      data::LoadCsvFromString("oid,value,prob\n0,1.5,0.5xyz\n", {}, "in.csv")
          .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("in.csv:2"), std::string::npos);
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0,1.5,0.5,7\n", {}).ok());
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0x1,1.5,0.5\n", {}).ok());
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0,1.5e2q,0.5\n", {}).ok());
}

TEST(Csv, RejectsNonFiniteValuesAndProbabilities) {
  for (const char* text :
       {"oid,value,prob\n0,nan,0.5\n0,2.0,0.5\n",
        "oid,value,prob\n0,inf,1.0\n", "oid,value,prob\n0,-inf,1.0\n",
        "oid,value,prob\n0,1.5,nan\n", "oid,value,prob\n0,1.5,inf\n",
        "oid,value,prob\n0,1e999,1.0\n"}) {
    const util::Status s =
        data::LoadCsvFromString(text, {}, "in.csv").status();
    EXPECT_FALSE(s.ok()) << text;
    EXPECT_FALSE(s.message().empty()) << text;
  }
}

TEST(Csv, RejectsOutOfRangeProbabilities) {
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0,1.5,-0.5\n", {}).ok());
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0,1.5,0\n", {}).ok());
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n0,1.5,1.5\n", {}).ok());
}

TEST(Csv, RejectsNegativeAndNonContiguousOids) {
  EXPECT_FALSE(
      data::LoadCsvFromString("oid,value,prob\n-1,1.5,1.0\n", {}).ok());
  const util::Status s =
      data::LoadCsvFromString("oid,value,prob\n0,1.0,1.0\n2,2.0,1.0\n", {},
                              "in.csv")
          .status();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("contiguous"), std::string::npos);
}

TEST(Csv, RejectsEmptyAndHeaderOnlyInput) {
  EXPECT_FALSE(data::LoadCsvFromString("", {}).ok());
  EXPECT_FALSE(data::LoadCsvFromString("oid,value,prob\n", {}).ok());
  data::CsvOptions headerless;
  headerless.require_header = false;
  EXPECT_FALSE(data::LoadCsvFromString("", headerless).ok());
  EXPECT_FALSE(
      data::LoadCsvFromString("# only a comment\n", headerless).ok());
}

TEST(Csv, AcceptsCommentsBlankLinesAndCrlf) {
  const std::string text =
      "# leading comment\r\noid,value,prob\r\n\r\n0,1.5,0.5\r\n# mid\n"
      "0,2.5,0.5\r\n1,2.0,1.0\r\n";
  const util::StatusOr<model::Database> db =
      data::LoadCsvFromString(text, {});
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_objects(), 2);
  EXPECT_EQ(db->num_instances(), 3);
}

TEST(Answers, ParsesStrictlyWithLineNumbers) {
  const std::string text = "# resolved by majority vote\n0,1\n\n 2 , 3 \n";
  const util::StatusOr<std::vector<data::ParsedAnswer>> answers =
      data::ParseAnswersFromString(text, /*num_objects=*/4);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 2u);
  EXPECT_EQ((*answers)[0].smaller, 0);
  EXPECT_EQ((*answers)[0].larger, 1);
  EXPECT_EQ((*answers)[0].line_no, 2);
  EXPECT_EQ((*answers)[1].smaller, 2);
  EXPECT_EQ((*answers)[1].larger, 3);
  EXPECT_EQ((*answers)[1].line_no, 4);
}

TEST(Answers, RejectsMalformedLines) {
  for (const char* text :
       {"0,1x\n", "0,1,2\n", "0\n", "a,b\n", "0,9\n", "-1,1\n", "2,2\n",
        "0, 1 trailing\n"}) {
    const util::Status s =
        data::ParseAnswersFromString(text, /*num_objects=*/4, "answers.csv")
            .status();
    EXPECT_FALSE(s.ok()) << text;
    EXPECT_NE(s.message().find("answers.csv:1"), std::string::npos) << text;
  }
}

}  // namespace
}  // namespace ptk
