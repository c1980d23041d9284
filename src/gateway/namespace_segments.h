// Copyright 2026 The LearnRisk Authors
// Append-only segmented record storage for gateway namespaces. A SideStore
// holds one side's records, their ground-truth entity ids, and their
// PreparedRecord featurization caches in a list of immutable, shared
// segments: registration builds one base segment from the source table, and
// each online append adds a single-record tail segment. Because segments are
// never mutated after publication, copying a SideStore is a handful of
// shared_ptr copies — exactly what the gateway's RCU writer needs to derive
// the next namespace snapshot without ever touching the one concurrent
// readers are using (see docs/CONCURRENCY.md).
//
// Each segment owns its Records, and its PreparedRecords borrow their raw
// attribute strings from those Records (PreparedValue::raw is a view), so a
// record's string data exists exactly once per segment. Segments are never
// merged: merging would relocate the Records and dangle the views. Random
// access resolves the owning segment by binary search over the base-offset
// table (one comparison when a store has a single segment, O(log segments)
// after online appends).

#ifndef LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_
#define LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/table.h"
#include "metrics/prepared_record.h"

namespace learnrisk {

class MetricSuite;

/// \brief One immutable run of a namespace side: records, entity ids, and
/// prepared featurization caches, index-aligned. The prepared entries'
/// string views point into `records`, which never moves after construction.
struct SideSegment {
  std::vector<Record> records;
  std::vector<int64_t> entity_ids;
  std::vector<PreparedRecord> prepared;

  SideSegment() = default;
  // Copying would dangle `prepared`'s views into `records`; segments are
  // built once and shared immutably behind shared_ptr<const SideSegment>.
  SideSegment(const SideSegment&) = delete;
  SideSegment& operator=(const SideSegment&) = delete;
};

/// \brief An append-only, cheaply copyable view over one side's segments.
///
/// Immutable through the const interface; WithAppended derives a new store
/// sharing every existing segment plus a fresh single-record tail. Safe to
/// read from any number of threads while a writer builds successor stores
/// from copies.
class SideStore {
 public:
  SideStore() = default;

  /// \brief One base segment holding a copy of every record of `table`,
  /// prepared under `suite` (parallel). The store owns its copies — the
  /// caller's table can die afterwards.
  static SideStore Build(const Table& table, const MetricSuite& suite);

  /// \brief A new store: this store's segments plus a one-record tail
  /// segment owning `record` (prepared under `suite`). The receiver is not
  /// modified.
  SideStore WithAppended(Record record, int64_t entity_id,
                         const MetricSuite& suite) const;

  size_t size() const { return size_; }
  size_t segment_count() const { return segments_.size(); }
  /// \brief Sum of PreparedRecord::Bytes() over the store's records, kept
  /// as a running total (WithAppended adds the tail's in O(1)).
  size_t prepared_bytes() const { return prepared_bytes_; }

  const Record& record(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->records[loc.offset];
  }
  const PreparedRecord& prepared(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->prepared[loc.offset];
  }
  int64_t entity_id(size_t i) const {
    const Location loc = Locate(i);
    return segments_[loc.segment]->entity_ids[loc.offset];
  }

  /// \brief Materializes the store back into a Table (for tests and
  /// reference rebuilds; copies every record).
  Table Materialize(const Schema& schema) const;

 private:
  struct Location {
    size_t segment;
    size_t offset;
  };
  Location Locate(size_t i) const;

  std::vector<std::shared_ptr<const SideSegment>> segments_;
  std::vector<size_t> bases_;  ///< bases_[k] = global index of segment k's row 0
  size_t size_ = 0;
  size_t prepared_bytes_ = 0;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_NAMESPACE_SEGMENTS_H_
