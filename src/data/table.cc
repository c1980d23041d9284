// Copyright 2026 The LearnRisk Authors

#include "data/table.h"

#include "common/string_util.h"

namespace learnrisk {

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

bool Schema::Equals(const Schema& other) const {
  if (attributes_.size() != other.attributes_.size()) return false;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name != other.attributes_[i].name ||
        attributes_[i].type != other.attributes_[i].type) {
      return false;
    }
  }
  return true;
}

Status Table::Append(Record record, int64_t entity_id) {
  if (record.values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(StrFormat(
        "record has %zu values, schema expects %zu", record.values.size(),
        schema_.num_attributes()));
  }
  records_.push_back(std::move(record));
  entity_ids_.push_back(entity_id);
  return Status::OK();
}

}  // namespace learnrisk
