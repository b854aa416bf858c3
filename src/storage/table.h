#ifndef OPINEDB_STORAGE_TABLE_H_
#define OPINEDB_STORAGE_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/value.h"

namespace opinedb::storage {

/// A row is one value per column.
using Row = std::vector<Value>;

/// Column metadata.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// An in-memory relational table with named, typed columns: the input
/// format of the objective relation (the role PostgreSQL plays in the
/// paper's implementation). OpineDb::SetObjectiveTable turns it into
/// the core::ColumnarTable it serves from; BoundColumnPredicate::Matches
/// over these rows is the reference the columns are checked against.
class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<Column> columns);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Appends a row after checking arity and types (nulls always pass).
  Status Append(Row row);

  const Row& row(size_t i) const { return rows_[i]; }
  const Value& at(size_t row, size_t col) const { return rows_[row][col]; }

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::unordered_map<std::string, int> column_index_;
  std::vector<Row> rows_;
};

/// Comparison operators usable in objective predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// A predicate bound to a concrete table: the column name has been
/// resolved to an index once, so Matches() is a direct cell comparison
/// with no per-row hash lookup. Obtain via ColumnPredicate::Bind; the
/// binding stays valid for the lifetime of the table's schema.
class BoundColumnPredicate {
 public:
  BoundColumnPredicate(size_t column, CompareOp op, Value literal)
      : column_(column), op_(op), literal_(std::move(literal)) {}

  /// Row-level evaluation (NULL cells never match, as in SQL).
  bool Matches(const Table& table, size_t row) const;

  size_t column() const { return column_; }

 private:
  size_t column_;
  CompareOp op_;
  Value literal_;
};

/// An objective predicate `column <op> literal` over a table.
struct ColumnPredicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  /// Resolves the column against `table` once; errors if it is unknown.
  /// Scans should bind once per predicate and call Matches per row.
  Result<BoundColumnPredicate> Bind(const Table& table) const;

  /// Evaluates against a row of `table`. Errors if the column is unknown.
  /// Convenience for one-off checks; scans should use Bind().
  Result<bool> Evaluate(const Table& table, size_t row) const;
};

/// Parses "<", "<=", "=", "!=", ">", ">=" into a CompareOp.
Result<CompareOp> ParseCompareOp(const std::string& token);

/// Renders a CompareOp as its SQL token ("=", "!=", "<", ...).
const char* CompareOpSymbol(CompareOp op);

}  // namespace opinedb::storage

#endif  // OPINEDB_STORAGE_TABLE_H_
