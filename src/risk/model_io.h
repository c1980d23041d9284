// Copyright 2026 The LearnRisk Authors
// Risk-model persistence: serialize a trained RiskModel (rules, expectation
// priors, learned weights/RSDs/influence parameters) to a line-oriented text
// format and load it back. Lets a model trained on a validation workload be
// deployed against production pairs without retraining.
//
// Format (one space-separated record per line; '#' comments ignored):
//   learnrisk-model v1
//   options <var_confidence> <metric> <rsd_max> <output_buckets> <use_out>
//   params <alpha_raw> <beta_raw>
//   phi_out <b0> <b1> ...
//   rule <label> <support> <match_rate> <impurity> <expectation>
//        <train_support> <theta> <phi> <npreds> {<metric> <name> <gt> <thr>}*
//   end
// Any other record tag fails the load.

#ifndef LEARNRISK_RISK_MODEL_IO_H_
#define LEARNRISK_RISK_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "risk/risk_model.h"

namespace learnrisk {

/// \brief Serializes the model (including its rule set and priors) to text.
std::string SerializeRiskModel(const RiskModel& model);

/// \brief Reconstructs a model from SerializeRiskModel output.
Result<RiskModel> DeserializeRiskModel(const std::string& text);

/// \brief Writes the serialized model to a file.
Status SaveRiskModel(const RiskModel& model, const std::string& path);

/// \brief Loads a model previously written by SaveRiskModel.
Result<RiskModel> LoadRiskModel(const std::string& path);

}  // namespace learnrisk

#endif  // LEARNRISK_RISK_MODEL_IO_H_
