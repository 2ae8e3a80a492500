// Figure 3: "action-trigger" interaction-correlation discovery.
//
// Paper: four classifiers (MLP, RandomForest, KNN, GradientBoost) trained
// on 5,600 correlated + 8,000 unrelated rule pairs, 10-fold CV; all reach
// >95% on accuracy/precision/recall/F1 (RandomForest best accuracy 0.984,
// MLP best recall 0.998, KNN best precision 0.997).

#include <memory>

#include "bench_common.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/mlp.h"
#include "ml/model_selection.h"
#include "nlp/rule_features.h"
#include "smarthome/platform.h"

using namespace fexiot;
using namespace fexiot::bench;

namespace {

// Builds the labeled pair corpus: positives are (A, B) where A's action
// causes B's trigger (ground truth from the simulator); negatives are
// random unrelated pairs.
void BuildPairs(int num_positive, int num_negative, Rng* rng, Matrix* x,
                std::vector<int>* y) {
  std::vector<Platform> platforms = {Platform::kSmartThings,
                                     Platform::kIfttt,
                                     Platform::kHomeAssistant};
  std::vector<RuleGenerator> gens;
  for (Platform p : platforms) gens.emplace_back(p, rng);

  std::vector<std::vector<double>> rows;
  y->clear();
  int made_pos = 0, made_neg = 0;
  while (made_pos < num_positive || made_neg < num_negative) {
    auto& gen = gens[rng->UniformInt(gens.size())];
    const Rule a = gen.Generate();
    Rule b;
    const bool want_positive = made_pos < num_positive &&
                               (made_neg >= num_negative || rng->Bernoulli(0.5));
    if (want_positive) {
      b = gen.GenerateTriggeredBy(a.actions.front());
    } else {
      b = gens[rng->UniformInt(gens.size())].Generate();
    }
    const bool correlated = ActionTriggersRule(a, b);
    if (correlated && made_pos >= num_positive) continue;
    if (!correlated && made_neg >= num_negative) continue;
    (correlated ? made_pos : made_neg) += 1;
    rows.push_back(RuleFeatureExtractor::ExtractPairFeatures(a.description,
                                                             b.description));
    y->push_back(correlated ? 1 : 0);
  }
  *x = Matrix::FromRows(rows);
}

}  // namespace

int main() {
  PrintHeader("Figure 3", "correlation classifiers, 10-fold cross validation");

  Rng rng(42);
  const int num_pos = Scaled(700, 100);
  const int num_neg = Scaled(1000, 140);
  Matrix x;
  std::vector<int> y;
  Stopwatch watch;
  BuildPairs(num_pos, num_neg, &rng, &x, &y);
  std::printf("built %zu labeled pairs (%d correlated / %d unrelated, "
              "%d features) in %.1fs\n",
              x.rows(), num_pos, num_neg,
              RuleFeatureExtractor::kPairFeatureDim, watch.ElapsedSeconds());

  struct Entry {
    const char* name;
    std::function<std::unique_ptr<Classifier>()> factory;
    double paper_acc;
  };
  const std::vector<Entry> entries = {
      {"MLP", [] { return std::make_unique<MlpClassifier>(); }, 0.975},
      {"RandomForest",
       [] { return std::make_unique<RandomForestClassifier>(); }, 0.984},
      {"KNN", [] { return std::make_unique<KnnClassifier>(); }, 0.975},
      {"GradientBoost",
       [] { return std::make_unique<GradientBoostClassifier>(); }, 0.975},
  };

  TablePrinter table({"classifier", "paper_acc", "accuracy", "precision",
                      "recall", "f1"});
  for (const auto& e : entries) {
    const CrossValidationResult cv =
        CrossValidate(e.factory, x, y, /*num_folds=*/10, &rng);
    std::string paper_acc = "~";
    paper_acc += Fmt(e.paper_acc, 3);
    table.AddRow({e.name, paper_acc, Fmt(cv.mean.accuracy),
                  Fmt(cv.mean.precision), Fmt(cv.mean.recall),
                  Fmt(cv.mean.f1)});
  }
  table.Print();
  std::printf(
      "\nShape check: all four classifiers should sit in the high-90%%s as in\n"
      "the paper, proving the Section III-A1 features carry the correlation\n"
      "signal; tree ensembles and MLP near the top.\n");
  return 0;
}
