// Copyright 2026 The LearnRisk Authors
// Tabular data model for ER workloads: attribute schema, records and tables.
// Attribute *semantic types* (entity name / entity set / text / numeric)
// drive which basic metrics apply to which attributes (paper Fig. 5).

#ifndef LEARNRISK_DATA_TABLE_H_
#define LEARNRISK_DATA_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace learnrisk {

/// \brief Semantic type of a string/numeric attribute; selects applicable
/// similarity and difference metrics (paper Sec. 5.1, Fig. 5).
enum class AttributeType {
  kEntityName,  ///< short identifying string, may have abbreviations (venue)
  kEntitySet,   ///< separator-delimited set of entity names (author list)
  kText,        ///< free text, one or many tokens (title, description)
  kNumeric,     ///< numeric value serialized as string (year, price)
  kCategorical  ///< small closed domain (genre)
};

/// \brief One column: a name plus its semantic type.
struct Attribute {
  std::string name;
  AttributeType type;
};

/// \brief Ordered list of attributes shared by all records of a table.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// \brief Index of the attribute with the given name, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// \brief True iff both schemas have identical names and types in order.
  bool Equals(const Schema& other) const;

 private:
  std::vector<Attribute> attributes_;
};

/// \brief One record: attribute values as strings; empty string = missing.
struct Record {
  std::vector<std::string> values;

  const std::string& value(size_t attr) const { return values[attr]; }
  bool IsMissing(size_t attr) const { return values[attr].empty(); }
};

/// \brief A table of records plus hidden entity identities.
///
/// `entity_id` is generator ground truth (two records are equivalent iff their
/// entity ids match); it is never exposed to metrics or classifiers.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_records() const { return records_.size(); }
  const Record& record(size_t i) const { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }

  int64_t entity_id(size_t i) const { return entity_ids_[i]; }

  /// \brief Appends a record with its ground-truth entity id; the record must
  /// match the schema width.
  Status Append(Record record, int64_t entity_id);

 private:
  Schema schema_;
  std::vector<Record> records_;
  std::vector<int64_t> entity_ids_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_DATA_TABLE_H_
