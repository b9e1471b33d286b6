#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"

namespace dana::storage {

/// System catalog: table registry plus accelerator metadata.
///
/// The paper stores the generated accelerator design, its schedule, operation
/// map, and Strider/engine instruction streams in the RDBMS catalog (§6.2);
/// query execution looks the UDF up here. Accelerator metadata is stored as
/// an opaque blob keyed by UDF name so that the storage layer stays
/// independent of the compiler layer.
///
/// Both registries are name-ordered maps with a transparent comparator:
/// GetTable/HasTable probe with a string_view without constructing a
/// std::string, and the name listings (TableNames/UdfNames) come out sorted
/// — the historical contract — by iteration alone. A catalog holds a
/// handful of tables and is consulted once per query, never per page.
class Catalog {
 public:
  /// Registers `table` under its name. Fails on duplicate names.
  dana::Status RegisterTable(std::unique_ptr<Table> table);

  /// Looks a table up by name.
  dana::Result<Table*> GetTable(std::string_view name) const;

  /// True iff a table with this name exists.
  bool HasTable(std::string_view name) const {
    return tables_.find(name) != tables_.end();
  }

  /// Removes a table; NotFound if absent.
  dana::Status DropTable(std::string_view name);

  /// Registered table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Stores accelerator metadata (serialized design + instruction streams)
  /// under a UDF name, replacing any previous entry.
  void PutUdfMetadata(std::string_view udf_name, std::string blob);

  /// Fetches UDF metadata; NotFound if the UDF was never registered.
  dana::Result<std::string> GetUdfMetadata(std::string_view udf_name) const;

  /// Registered UDF names, sorted.
  std::vector<std::string> UdfNames() const;

 private:
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  std::map<std::string, std::string, std::less<>> udf_metadata_;
};

}  // namespace dana::storage
