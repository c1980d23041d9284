// Copyright 2026 The LearnRisk Authors

#include "eval/experiment.h"

#include <algorithm>
#include <memory>

#include "baselines/simple_baselines.h"
#include "classifier/ensemble.h"
#include "common/string_util.h"

namespace learnrisk {

Result<Workload> AlignWorkload(const Workload& target,
                               const Schema& reference) {
  const Schema& schema = target.left().schema();
  std::vector<size_t> mapping(reference.num_attributes());
  std::vector<bool> used(schema.num_attributes(), false);

  auto synonym = [](const std::string& a, const std::string& b) {
    return (a == "title" && b == "name") || (a == "name" && b == "title");
  };

  for (size_t i = 0; i < reference.num_attributes(); ++i) {
    const Attribute& ref = reference.attribute(i);
    int found = -1;
    for (size_t j = 0; j < schema.num_attributes(); ++j) {
      if (!used[j] && schema.attribute(j).name == ref.name &&
          schema.attribute(j).type == ref.type) {
        found = static_cast<int>(j);
        break;
      }
    }
    if (found < 0) {
      for (size_t j = 0; j < schema.num_attributes(); ++j) {
        if (!used[j] && synonym(schema.attribute(j).name, ref.name) &&
            schema.attribute(j).type == ref.type) {
          found = static_cast<int>(j);
          break;
        }
      }
    }
    if (found < 0) {
      for (size_t j = 0; j < schema.num_attributes(); ++j) {
        if (!used[j] && schema.attribute(j).type == ref.type) {
          found = static_cast<int>(j);
          break;
        }
      }
    }
    if (found < 0) {
      return Status::InvalidArgument(
          "cannot align attribute '" + ref.name + "' onto target schema");
    }
    mapping[i] = static_cast<size_t>(found);
    used[static_cast<size_t>(found)] = true;
  }

  auto project = [&](const Table& table) {
    auto out = std::make_shared<Table>(reference);
    for (size_t r = 0; r < table.num_records(); ++r) {
      Record rec;
      rec.values.reserve(mapping.size());
      for (size_t m : mapping) rec.values.push_back(table.record(r).value(m));
      (void)out->Append(std::move(rec), table.entity_id(r));
    }
    return out;
  };

  const bool dedup = &target.left() == &target.right();
  auto left = project(target.left());
  auto right = dedup ? left : project(target.right());
  return Workload(target.name() + "/aligned", left, right, target.pairs());
}

Result<std::unique_ptr<Experiment>> Experiment::Prepare(
    const ExperimentConfig& config) {
  GeneratorOptions gen;
  gen.scale = config.scale;
  gen.seed = config.seed;
  auto workload = GenerateDataset(config.dataset, gen);
  if (!workload.ok()) return workload.status();
  return PrepareFromWorkload(workload.MoveValueOrDie(), config);
}

Result<std::unique_ptr<Experiment>> Experiment::PrepareFromWorkload(
    Workload workload, const ExperimentConfig& config) {
  auto experiment = std::unique_ptr<Experiment>(new Experiment());
  LEARNRISK_RETURN_NOT_OK(
      experiment->Initialize(std::move(workload), config, nullptr));
  return experiment;
}

Result<std::unique_ptr<Experiment>> Experiment::PrepareOod(
    const ExperimentConfig& source, const std::string& target_dataset) {
  GeneratorOptions src_gen;
  src_gen.scale = source.scale;
  src_gen.seed = source.seed;
  auto src = GenerateDataset(source.dataset, src_gen);
  if (!src.ok()) return src.status();

  GeneratorOptions tgt_gen;
  tgt_gen.scale = source.scale;
  tgt_gen.seed = source.seed + 1000;
  auto tgt = GenerateDataset(target_dataset, tgt_gen);
  if (!tgt.ok()) return tgt.status();

  Workload target = tgt.MoveValueOrDie();
  if (!target.left().schema().Equals(src->left().schema())) {
    auto aligned = AlignWorkload(target, src->left().schema());
    if (!aligned.ok()) return aligned.status();
    target = aligned.MoveValueOrDie();
  }

  ExperimentConfig cfg = source;
  cfg.dataset = source.dataset + "2" + target_dataset;
  auto experiment = std::unique_ptr<Experiment>(new Experiment());
  const Workload source_workload = src.MoveValueOrDie();
  LEARNRISK_RETURN_NOT_OK(
      experiment->Initialize(std::move(target), cfg, &source_workload));
  return experiment;
}

Status Experiment::Initialize(Workload workload,
                              const ExperimentConfig& config,
                              const Workload* classifier_source) {
  config_ = config;
  workload_ = std::make_unique<Workload>(std::move(workload));
  truth_ = workload_->Labels();

  // OOD splits the target into risk-training (validation) and test only;
  // the classifier trains on the source workload's own train split.
  Rng rng(config.seed + 17);
  auto split = StratifiedSplit(
      *workload_, classifier_source == nullptr ? config.train_ratio : 0.0,
      config.valid_ratio, config.test_ratio, &rng);
  if (!split.ok()) return split.status();
  split_ = split.MoveValueOrDie();
  const Workload& fit_workload =
      classifier_source != nullptr ? *classifier_source : *workload_;
  std::vector<size_t> fit_train = split_.train;
  if (classifier_source != nullptr) {
    Rng src_rng(config.seed + 23);
    auto src_split =
        StratifiedSplit(*classifier_source, config.train_ratio,
                        config.valid_ratio, config.test_ratio, &src_rng);
    if (!src_split.ok()) return src_split.status();
    fit_train = src_split->train;
  }

  // Metric suite, classifier and risk features all fit on the classifier's
  // training workload, so the feature space is the classifier's (matters
  // for OOD). The pipeline's risk model stays at the prior: RunLearnRiskOn
  // trains its own.
  PipelineOptions options;
  options.classifier = config.classifier;
  options.classifier.seed = config.seed + 31;
  options.rules = config.rules;
  options.risk_model = config.risk_model;
  options.risk_trainer = config.risk_trainer;
  options.classifier_uses_difference_metrics =
      config.classifier_uses_difference_metrics;
  pipeline_ = LearnRiskPipeline(options);
  LEARNRISK_RETURN_NOT_OK(pipeline_.Fit(fit_workload, fit_train, {}));
  train_features_ = GatherRows(pipeline_.features(), fit_train);
  train_classifier_features_ =
      GatherColumns(train_features_, pipeline_.classifier_columns());
  train_labels_ = Gather(fit_workload.Labels(), fit_train);

  if (classifier_source == nullptr) {
    features_ = pipeline_.features();
    probs_ = pipeline_.classifier_probs();
  } else {
    features_ = ComputeFeatures(*workload_, pipeline_.suite());
    probs_ = pipeline_.classifier().PredictProbaAll(
        GatherColumns(features_, pipeline_.classifier_columns()));
  }
  machine_.resize(probs_.size());
  for (size_t i = 0; i < probs_.size(); ++i) {
    machine_[i] = probs_[i] >= 0.5 ? 1 : 0;
  }
  mislabeled_ = MislabelFlags(machine_, truth_);
  return Status::OK();
}

MethodResult Experiment::Evaluate(const std::string& name,
                                  const std::vector<double>& scores) const {
  const std::vector<uint8_t> labels = Gather(mislabeled_, split_.test);
  MethodResult result;
  result.name = name;
  result.curve = ComputeRoc(scores, labels);
  result.auroc = result.curve.auroc;
  return result;
}

FeatureMatrix Experiment::TestClassifierFeatures() const {
  return GatherColumns(GatherRows(features_, split_.test),
                       pipeline_.classifier_columns());
}

MethodResult Experiment::RunBaseline() const {
  return Evaluate("Baseline", AmbiguityRisk(Gather(probs_, split_.test)));
}

Result<MethodResult> Experiment::RunUncertainty() {
  MlpOptions member = config_.classifier;
  BootstrapEnsemble ensemble(
      [member](uint64_t seed) {
        MlpOptions opts = member;
        opts.seed = seed;
        return std::make_unique<MlpClassifier>(opts);
      },
      config_.ensemble_size, config_.seed + 41);
  LEARNRISK_RETURN_NOT_OK(
      ensemble.Train(train_classifier_features_, train_labels_));
  return Evaluate("Uncertainty", UncertaintyRisk(ensemble.VoteFraction(
                                     TestClassifierFeatures())));
}

Result<MethodResult> Experiment::RunTrustScore() {
  // TrustScore consumes the classifier's representation (the paper feeds it
  // the DNN's attribute-similarity summaries).
  TrustScore trust;
  LEARNRISK_RETURN_NOT_OK(
      trust.Fit(train_classifier_features_, train_labels_));
  return Evaluate("TrustScore",
                  trust.RiskAll(TestClassifierFeatures(),
                                Gather(machine_, split_.test)));
}

Result<MethodResult> Experiment::RunStaticRisk() {
  StaticRisk static_risk;
  LEARNRISK_RETURN_NOT_OK(static_risk.Fit(Gather(probs_, split_.valid),
                                          Gather(truth_, split_.valid)));
  return Evaluate("StaticRisk",
                  static_risk.RiskAll(Gather(probs_, split_.test)));
}

Result<MethodResult> Experiment::RunLearnRisk() {
  return RunLearnRiskOn(split_.valid, config_.risk_model,
                        config_.risk_trainer);
}

Result<MethodResult> Experiment::RunLearnRiskOn(
    const std::vector<size_t>& risk_train,
    const RiskModelOptions& model_options,
    const RiskTrainerOptions& trainer_options, const std::string& name) {
  RiskModel model(risk_features(), model_options);
  LEARNRISK_RETURN_NOT_OK(TrainRiskModel(
      &model, GatherRows(features_, risk_train), Gather(probs_, risk_train),
      Gather(truth_, risk_train), trainer_options));
  return Evaluate(name, model.Score(ComputeActivation(
                            model.features(), GatherRows(features_, split_.test),
                            Gather(probs_, split_.test))));
}

namespace {

// Appends one extra column (e.g. the DNN output, which the paper gives
// HoloClean's forest as an additional metric) to a feature matrix.
FeatureMatrix AppendColumn(const FeatureMatrix& features,
                           const std::vector<double>& column,
                           const std::string& name) {
  FeatureMatrix out(features.rows(), features.cols() + 1);
  out.column_names = features.column_names;
  out.column_names.push_back(name);
  for (size_t r = 0; r < features.rows(); ++r) {
    for (size_t c = 0; c < features.cols(); ++c) {
      out.set(r, c, features.at(r, c));
    }
    out.set(r, features.cols(), column[r]);
  }
  return out;
}

}  // namespace

Result<MethodResult> Experiment::RunHoloClean() {
  // Forest features: the same basic metrics as LearnRisk plus the DNN
  // output (Sec. 7.3).
  const std::vector<double> train_probs =
      classifier().PredictProbaAll(train_classifier_features_);
  const FeatureMatrix train_aug =
      AppendColumn(train_features_, train_probs, "classifier_output");

  RandomForestOptions forest_options;
  forest_options.seed = config_.seed + 53;
  forest_options.tree.max_depth = config_.rules.max_depth;
  forest_options.tree.min_leaf_size = config_.rules.min_leaf_size;
  RandomForest forest(forest_options);
  LEARNRISK_RETURN_NOT_OK(forest.Train(train_aug, train_labels_));
  // Rule budget matched to LearnRisk's one-sided rule count (Sec. 7.3).
  std::vector<Rule> labeling_rules = forest.ExtractRules(
      train_aug.column_names, std::max<size_t>(rules().size(), 1));

  const std::vector<double> test_probs = Gather(probs_, split_.test);
  const FeatureMatrix test_aug = AppendColumn(
      GatherRows(features_, split_.test), test_probs, "classifier_output");
  HoloCleanAdapter adapter;
  LEARNRISK_RETURN_NOT_OK(
      adapter.Fit(std::move(labeling_rules), test_aug, test_probs));
  return Evaluate("HoloClean", adapter.RiskAll(test_aug, test_probs));
}

ConfusionMatrix Experiment::TestConfusion() const {
  return Confusion(Gather(machine_, split_.test),
                   Gather(truth_, split_.test));
}

size_t Experiment::NumTestMislabeled() const {
  size_t n = 0;
  for (size_t i : split_.test) n += mislabeled_[i];
  return n;
}

double Experiment::TestRuleCoverage() const {
  return risk_features().Coverage(GatherRows(features_, split_.test));
}

}  // namespace learnrisk
