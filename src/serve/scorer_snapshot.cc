// Copyright 2026 The LearnRisk Authors

#include "serve/scorer_snapshot.h"

namespace learnrisk {

void ScorerSnapshot::ScoreRows(
    const double* features, size_t cols, const double* probs, size_t rows,
    size_t explain_top_k, ScoreScratch* scratch, double* risk, uint8_t* label,
    std::vector<RiskContribution>* explanations) const {
  const CompiledRuleSet& plan = compiled();
  scratch->failed.resize(plan.num_words());
  scratch->active.resize(plan.num_rules());
  for (size_t i = 0; i < rows; ++i) {
    const size_t num_active = plan.ActiveRulesInto(
        features + i * cols, scratch->failed.data(), scratch->active.data());
    const uint8_t machine_label = probs[i] >= 0.5 ? 1 : 0;
    risk[i] = model_.RiskScore(scratch->active.data(), num_active, probs[i],
                               machine_label);
    label[i] = machine_label;
    if (explain_top_k > 0) {
      explanations[i] = model_.Explain(scratch->active.data(), num_active,
                                       probs[i], explain_top_k);
    }
  }
}

}  // namespace learnrisk
