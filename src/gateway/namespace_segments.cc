// Copyright 2026 The LearnRisk Authors

#include "gateway/namespace_segments.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "metrics/metric_suite.h"

namespace learnrisk {

SideStore SideStore::Build(const Table& table, const MetricSuite& suite) {
  SideStore store;
  if (table.num_records() == 0) return store;
  auto segment = std::make_shared<SideSegment>();
  // Copy the rows first and never resize afterwards: the prepared entries
  // below hold views into these strings.
  segment->records = table.records();
  segment->entity_ids.reserve(table.num_records());
  for (size_t i = 0; i < table.num_records(); ++i) {
    segment->entity_ids.push_back(table.entity_id(i));
  }
  segment->prepared.resize(segment->records.size());
  ParallelFor(segment->records.size(), [&](size_t i) {
    segment->prepared[i] = suite.PrepareRecord(segment->records[i]);
  });
  for (const PreparedRecord& prepared : segment->prepared) {
    store.prepared_bytes_ += prepared.Bytes();
  }
  store.size_ = segment->records.size();
  store.bases_.push_back(0);
  store.segments_.push_back(std::move(segment));
  return store;
}

SideStore SideStore::WithAppended(Record record, int64_t entity_id,
                                  const MetricSuite& suite) const {
  SideStore next = *this;  // shares every existing segment
  auto tail = std::make_shared<SideSegment>();
  tail->records.push_back(std::move(record));
  tail->entity_ids.push_back(entity_id);
  tail->prepared.push_back(suite.PrepareRecord(tail->records.front()));
  next.prepared_bytes_ += tail->prepared.front().Bytes();
  next.bases_.push_back(next.size_);
  next.segments_.push_back(std::move(tail));
  ++next.size_;
  return next;
}

SideStore::Location SideStore::Locate(size_t i) const {
  if (segments_.size() == 1) return {0, i};
  // Last segment whose base is <= i.
  const size_t k = static_cast<size_t>(
      std::upper_bound(bases_.begin(), bases_.end(), i) - bases_.begin() - 1);
  return {k, i - bases_[k]};
}

Table SideStore::Materialize(const Schema& schema) const {
  Table table(schema);
  for (size_t i = 0; i < size_; ++i) {
    // Append only fails on width mismatch, which Build/WithAppended callers
    // already enforce against the namespace schema.
    const Status appended = table.Append(record(i), entity_id(i));
    (void)appended;
  }
  return table;
}

}  // namespace learnrisk
