// Copyright 2026 The LearnRisk Authors

#include "metrics/prepared_record.h"

#include <functional>

#include "common/parallel.h"
#include "metrics/metric_suite.h"

namespace learnrisk {

size_t PreparedRecord::Bytes() const {
  size_t bytes = sizeof(PreparedRecord) +
                 values.capacity() * sizeof(PreparedValue) +
                 data.capacity() * sizeof(uint32_t);
  for (const PreparedValue& v : values) {
    bytes += v.tokens.capacity() * sizeof(std::string) +
             v.packed_tokens.capacity() * sizeof(PackedToken);
    for (const std::string& token : v.tokens) {
      // A string whose characters lie outside its own object owns a block.
      const char* object = reinterpret_cast<const char*>(&token);
      const std::less<const char*> before;
      if (before(token.data(), object) ||
          !before(token.data(), object + sizeof(token))) {
        bytes += token.capacity() + 1;
      }
    }
  }
  return bytes;
}

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
