#include "storage/table.h"

namespace opinedb::storage {

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    column_index_[columns_[i].name] = static_cast<int>(i);
  }
}

int Table::ColumnIndex(const std::string& name) const {
  auto it = column_index_.find(name);
  return it == column_index_.end() ? -1 : it->second;
}

Status Table::Append(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != " +
        std::to_string(columns_.size()) + " for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != columns_[i].type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

bool BoundColumnPredicate::Matches(const Table& table, size_t row) const {
  const Value& cell = table.at(row, column_);
  if (cell.is_null()) return false;  // SQL semantics: NULL never matches.
  const int cmp = cell.Compare(literal_);
  switch (op_) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Result<BoundColumnPredicate> ColumnPredicate::Bind(const Table& table) const {
  const int col = table.ColumnIndex(column);
  if (col < 0) return Status::NotFound("column " + column);
  return BoundColumnPredicate(static_cast<size_t>(col), op, literal);
}

Result<bool> ColumnPredicate::Evaluate(const Table& table, size_t row) const {
  auto bound = Bind(table);
  if (!bound.ok()) return bound.status();
  return bound->Matches(table, row);
}

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<CompareOp> ParseCompareOp(const std::string& token) {
  if (token == "=" || token == "==") return CompareOp::kEq;
  if (token == "!=" || token == "<>") return CompareOp::kNe;
  if (token == "<") return CompareOp::kLt;
  if (token == "<=") return CompareOp::kLe;
  if (token == ">") return CompareOp::kGt;
  if (token == ">=") return CompareOp::kGe;
  return Status::ParseError("unknown comparison operator: " + token);
}

}  // namespace opinedb::storage
