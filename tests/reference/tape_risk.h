// Copyright 2026 The LearnRisk Authors
// Reference risk scoring and training through the autodiff tape: the
// original Sec. 6.2.3 formulation, which records each pair's VaR and the
// pairwise rank loss on a tape and back-propagates exact gradients. The
// analytic path in src/ (RiskModel::RiskScoreBatch + the closed-form rank
// gradient in RiskTrainer) must match it: jacobians to 1e-6 and seeded loss
// trajectories per epoch (tests/trainer_parity_test.cc).
//
// Everything here reads a RiskModel through its public accessors only.

#ifndef LEARNRISK_REFERENCE_TAPE_RISK_H_
#define LEARNRISK_REFERENCE_TAPE_RISK_H_

#include <cstdint>
#include <vector>

#include "reference/tape.h"
#include "risk/risk_feature.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace learnrisk {
namespace reference {

/// \brief Handles to a model's raw parameters re-created on a tape.
struct TapeParams {
  std::vector<Var> theta;  ///< raw rule weights
  std::vector<Var> phi;    ///< raw rule RSDs
  Var alpha_raw;
  Var beta_raw;
  std::vector<Var> phi_out;  ///< raw per-bucket output RSDs
};

/// \brief Registers all of `model`'s raw parameters as tape variables.
TapeParams MakeTapeParams(const RiskModel& model, Tape* tape);

/// \brief Records the risk score of one pair on the tape. kCVaR records the
/// VaR surrogate, which shares its optimum ranking.
Var RiskScoreOnTape(const RiskModel& model, Tape* tape,
                    const TapeParams& params,
                    const std::vector<uint32_t>& active_rules,
                    double classifier_output, uint8_t machine_label);

/// \brief RiskTrainer::Train through the tape: the same seeded epoch
/// sampling and optimizer step, with each epoch's gradient back-propagated
/// from the recorded loss. Trains `model` in place and returns the mean
/// sampled rank loss per epoch (empty when there is nothing to rank).
/// `peak_nodes`, if set, receives the tape's high-water mark.
std::vector<double> TapeTrain(RiskModel* model, const RiskActivation& data,
                              const std::vector<uint8_t>& mislabeled,
                              const RiskTrainerOptions& options,
                              size_t* peak_nodes = nullptr);

}  // namespace reference
}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_TAPE_RISK_H_
