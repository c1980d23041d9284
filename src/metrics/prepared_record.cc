// Copyright 2026 The LearnRisk Authors

#include "metrics/prepared_record.h"

#include "common/parallel.h"
#include "metrics/metric_suite.h"

namespace learnrisk {

PreparedTable PreparedTable::Build(const Table& table,
                                   const MetricSuite& suite) {
  PreparedTable prepared;
  prepared.records_.resize(table.num_records());
  ParallelFor(table.num_records(), [&](size_t i) {
    prepared.records_[i] = suite.PrepareRecord(table.record(i));
  });
  return prepared;
}

}  // namespace learnrisk
