#include "fuzzy/logic.h"

#include <algorithm>
#include <cassert>

namespace opinedb::fuzzy {

Expr::Ptr Expr::Leaf(size_t index) {
  return Ptr(new Expr(Kind::kLeaf, index, {}));
}

Expr::Ptr Expr::MakeAnd(std::vector<Ptr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children[0];
  return Ptr(new Expr(Kind::kAnd, 0, std::move(children)));
}

Expr::Ptr Expr::MakeOr(std::vector<Ptr> children) {
  assert(!children.empty());
  if (children.size() == 1) return children[0];
  return Ptr(new Expr(Kind::kOr, 0, std::move(children)));
}

Expr::Ptr Expr::MakeNot(Ptr child) {
  assert(child != nullptr);
  return Ptr(new Expr(Kind::kNot, 0, {std::move(child)}));
}

size_t Expr::NumLeaves() const {
  switch (kind_) {
    case Kind::kLeaf:
      return leaf_index_ + 1;
    default: {
      size_t max_leaves = 0;
      for (const auto& child : children_) {
        max_leaves = std::max(max_leaves, child->NumLeaves());
      }
      return max_leaves;
    }
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLeaf:
      return "p" + std::to_string(leaf_index_);
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind_ == Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i]->ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "NOT " + children_[0]->ToString();
  }
  return "";
}

}  // namespace opinedb::fuzzy
