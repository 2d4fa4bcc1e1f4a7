#include "model/posterior.h"

#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "model/prior.h"

namespace qasca {
namespace {

WorkerModelLookup MakeLookup(
    const std::unordered_map<WorkerId, WorkerModel>& models) {
  return [&models](WorkerId worker) -> const WorkerModel& {
    return models.at(worker);
  };
}

TEST(PosteriorTest, NoAnswersReturnsPrior) {
  std::unordered_map<WorkerId, WorkerModel> models;
  std::vector<double> prior = {0.7, 0.3};
  std::vector<double> row =
      ComputePosteriorRow({}, prior, MakeLookup(models));
  EXPECT_DOUBLE_EQ(row[0], 0.7);
  EXPECT_DOUBLE_EQ(row[1], 0.3);
}

TEST(PosteriorTest, PaperExample6) {
  // Example 6: three labels, D2 = {(w1, L3), (w2, L1)}, m_w1 = 0.7,
  // m_w2 = 0.6, uniform prior -> Qc2 = [0.346, 0.115, 0.539].
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.7, 3));
  models.emplace(2, WorkerModel::Wp(0.6, 3));
  AnswerList answers = {{1, 2}, {2, 0}};  // 0-based labels
  std::vector<double> row =
      ComputePosteriorRow(answers, UniformPrior(3), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.346, 1e-3);
  EXPECT_NEAR(row[1], 0.115, 1e-3);
  EXPECT_NEAR(row[2], 0.539, 1e-3);
}

TEST(PosteriorTest, AgreeingAnswersSharpenBelief) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  std::vector<double> prior = UniformPrior(2);
  std::vector<double> one =
      ComputePosteriorRow({{1, 0}}, prior, MakeLookup(models));
  models.emplace(2, WorkerModel::Wp(0.8, 2));
  std::vector<double> two =
      ComputePosteriorRow({{1, 0}, {2, 0}}, prior, MakeLookup(models));
  EXPECT_GT(one[0], 0.5);
  EXPECT_GT(two[0], one[0]);
}

TEST(PosteriorTest, ContradictoryEqualWorkersCancelOut) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  models.emplace(2, WorkerModel::Wp(0.8, 2));
  std::vector<double> row = ComputePosteriorRow(
      {{1, 0}, {2, 1}}, UniformPrior(2), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.5, 1e-12);
}

TEST(PosteriorTest, PriorTiltsResult) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.8, 2));
  std::vector<double> skewed = {0.9, 0.1};
  std::vector<double> row =
      ComputePosteriorRow({{1, 1}}, skewed, MakeLookup(models));
  // One answer for label 1 against a strong prior for label 0:
  // 0.9*0.2 : 0.1*0.8 = 0.18 : 0.08.
  EXPECT_NEAR(row[0], 0.18 / 0.26, 1e-12);
}

TEST(PosteriorTest, DegenerateContradictionFallsBackToUniform) {
  // Two perfect workers disagree: all weights vanish; the row must stay a
  // valid distribution rather than abort.
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::PerfectWp(2));
  models.emplace(2, WorkerModel::PerfectWp(2));
  std::vector<double> row = ComputePosteriorRow(
      {{1, 0}, {2, 1}}, UniformPrior(2), MakeLookup(models));
  EXPECT_NEAR(row[0], 0.5, 1e-12);
  EXPECT_NEAR(row[1], 0.5, 1e-12);
}

TEST(PosteriorTest, CurrentDistributionCoversAllQuestions) {
  std::unordered_map<WorkerId, WorkerModel> models;
  models.emplace(1, WorkerModel::Wp(0.9, 2));
  AnswerSet answers(3);
  answers[0] = {{1, 0}};
  answers[2] = {{1, 1}};
  DistributionMatrix qc =
      ComputeCurrentDistribution(answers, UniformPrior(2), MakeLookup(models));
  EXPECT_GT(qc.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(qc.At(1, 0), 0.5);  // unanswered -> prior
  EXPECT_GT(qc.At(2, 1), 0.5);
  EXPECT_TRUE(qc.IsNormalized());
}

TEST(PosteriorTest, PaperExample7SampledRow) {
  // Example 7: Qc1 = [0.8, 0.2], WP m = 0.75. If the sampled answer is L1
  // the row becomes [0.923, 0.077]; if L2, [0.571, 0.429] — and L1 is
  // sampled with probability 0.65 (Eq. 17).
  util::Rng rng(7);
  WorkerModel model = WorkerModel::Wp(0.75, 2);
  std::vector<double> current = {0.8, 0.2};
  int high = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> row =
        EstimateWorkerRow(current, model, QwMode::kSampled, rng);
    if (row[0] > 0.9) {
      EXPECT_NEAR(row[0], 12.0 / 13.0, 1e-9);  // 0.923
      ++high;
    } else {
      EXPECT_NEAR(row[0], 4.0 / 7.0, 1e-9);  // 0.571
    }
  }
  EXPECT_NEAR(high / static_cast<double>(trials), 0.65, 0.01);
}

TEST(PosteriorTest, ExpectedModeIsDeterministicMixture) {
  util::Rng rng(8);
  WorkerModel model = WorkerModel::Wp(0.75, 2);
  std::vector<double> current = {0.8, 0.2};
  std::vector<double> row =
      EstimateWorkerRow(current, model, QwMode::kExpected, rng);
  // 0.65 * [0.923, 0.077] + 0.35 * [0.571, 0.429].
  EXPECT_NEAR(row[0], 0.65 * (12.0 / 13.0) + 0.35 * (4.0 / 7.0), 1e-9);
  // Deterministic: a second call gives the same row.
  std::vector<double> again =
      EstimateWorkerRow(current, model, QwMode::kExpected, rng);
  EXPECT_DOUBLE_EQ(row[0], again[0]);
}

TEST(PosteriorTest, PerfectWorkerYieldsOneHotRow) {
  util::Rng rng(9);
  WorkerModel model = WorkerModel::PerfectWp(2);
  std::vector<double> current = {0.8, 0.2};
  std::vector<double> row =
      EstimateWorkerRow(current, model, QwMode::kSampled, rng);
  EXPECT_TRUE((row[0] == 1.0 && row[1] == 0.0) ||
              (row[0] == 0.0 && row[1] == 1.0));
}

TEST(PosteriorTest, WpFastPathMatchesExpandedCm) {
  // EstimateWorkerRow special-cases WP models with a closed-form answer
  // distribution; it must agree with the generic CM path on the expanded
  // matrix. kExpected mode makes the comparison deterministic.
  util::Rng rng(20);
  for (int num_labels : {2, 3, 7}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> weights(num_labels);
      for (double& w : weights) w = rng.Uniform(0.01, 1.0);
      double total = 0.0;
      for (double w : weights) total += w;
      for (double& w : weights) w /= total;

      double m = rng.Uniform(0.3, 0.95);
      WorkerModel wp = WorkerModel::Wp(m, num_labels);
      WorkerModel cm = WorkerModel::Cm(wp.AsConfusionMatrix(), num_labels);
      std::vector<double> via_wp =
          EstimateWorkerRow(weights, wp, QwMode::kExpected, rng);
      std::vector<double> via_cm =
          EstimateWorkerRow(weights, cm, QwMode::kExpected, rng);
      for (int j = 0; j < num_labels; ++j) {
        EXPECT_NEAR(via_wp[j], via_cm[j], 1e-12)
            << "l=" << num_labels << " j=" << j;
      }
    }
  }
}

// The assignment core's incremental refresh reads worker likelihoods
// through tables (ComputePosteriorRowWithLikelihoods). The tables hold the
// models' own AnswerProbability doubles, so every row must equal the
// model-lookup posterior bit for bit, for WP and CM workers alike.
TEST(PosteriorTest, LikelihoodTableRowBitwiseMatchesModelLookup) {
  util::Rng rng(31);
  for (int num_labels : {2, 3, 5}) {
    std::unordered_map<WorkerId, WorkerModel> models;
    std::unordered_map<WorkerId, WorkerLikelihoods> tables;
    for (WorkerId w = 0; w < 6; ++w) {
      if (w % 2 == 0) {
        models.emplace(w, WorkerModel::Wp(rng.Uniform(0.4, 0.95), num_labels));
      } else {
        std::vector<double> cm(static_cast<size_t>(num_labels) * num_labels);
        for (int t = 0; t < num_labels; ++t) {
          double total = 0.0;
          for (int a = 0; a < num_labels; ++a) {
            total += cm[t * num_labels + a] = rng.Uniform(0.05, 1.0);
          }
          for (int a = 0; a < num_labels; ++a) cm[t * num_labels + a] /= total;
        }
        models.emplace(w, WorkerModel::Cm(std::move(cm), num_labels));
      }
      tables[w].Rebuild(models.at(w));
    }
    const LikelihoodLookup table_lookup =
        [&tables](WorkerId w) -> const WorkerLikelihoods& {
      return tables.at(w);
    };
    const std::vector<double> prior = UniformPrior(num_labels);
    for (int trial = 0; trial < 20; ++trial) {
      AnswerList answers;
      for (int a = 0; a < 1 + trial % 6; ++a) {
        answers.push_back({static_cast<WorkerId>(rng.UniformInt(6)),
                           static_cast<LabelIndex>(
                               rng.UniformInt(num_labels))});
      }
      std::vector<double> via_models;
      std::vector<double> via_tables;
      double marginal_models = 0.0;
      double marginal_tables = 0.0;
      ComputePosteriorRowInto(answers, prior, MakeLookup(models), &via_models,
                              &marginal_models);
      ComputePosteriorRowWithLikelihoods(answers, prior, table_lookup,
                                         &via_tables, &marginal_tables);
      EXPECT_EQ(via_tables, via_models) << "l=" << num_labels;
      EXPECT_EQ(marginal_tables, marginal_models) << "l=" << num_labels;
    }
  }
}

TEST(PosteriorTest, EstimateWorkerDistributionOnlyTouchesCandidates) {
  util::Rng rng(10);
  DistributionMatrix qc(4, 2);
  qc.SetRow(0, std::vector<double>{0.9, 0.1});
  qc.SetRow(1, std::vector<double>{0.3, 0.7});
  WorkerModel model = WorkerModel::Wp(0.75, 2);
  DistributionMatrix qw =
      EstimateWorkerDistribution(qc, model, {1, 3}, QwMode::kSampled, rng);
  EXPECT_DOUBLE_EQ(qw.At(0, 0), 0.9);  // untouched
  EXPECT_NE(qw.At(1, 0), 0.3);         // conditioned
  EXPECT_TRUE(qw.IsNormalized());
}

}  // namespace
}  // namespace qasca
