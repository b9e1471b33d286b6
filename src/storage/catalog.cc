#include "storage/catalog.h"

namespace dana::storage {

Status Catalog::RegisterTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.find(name) != tables_.end()) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Result<Table*> Catalog::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) +
                            "' not in catalog");
  }
  return it->second.get();
}

Status Catalog::DropTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + std::string(name) +
                            "' not in catalog");
  }
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

void Catalog::PutUdfMetadata(std::string_view udf_name, std::string blob) {
  auto it = udf_metadata_.find(udf_name);
  if (it != udf_metadata_.end()) {
    it->second = std::move(blob);
    return;
  }
  udf_metadata_.emplace(std::string(udf_name), std::move(blob));
}

Result<std::string> Catalog::GetUdfMetadata(std::string_view udf_name) const {
  auto it = udf_metadata_.find(udf_name);
  if (it == udf_metadata_.end()) {
    return Status::NotFound("UDF '" + std::string(udf_name) +
                            "' not in catalog");
  }
  return it->second;
}

std::vector<std::string> Catalog::UdfNames() const {
  std::vector<std::string> names;
  names.reserve(udf_metadata_.size());
  for (const auto& [name, _] : udf_metadata_) names.push_back(name);
  return names;
}

}  // namespace dana::storage
