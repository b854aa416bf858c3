#ifndef OPINEDB_FUZZY_LOGIC_H_
#define OPINEDB_FUZZY_LOGIC_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace opinedb::fuzzy {

/// The fuzzy-logic variant used to combine degrees of truth (Section 3.1).
enum class Variant {
  /// Classic Zadeh/Gödel: x⊗y = min(x,y), x⊕y = max(x,y).
  kGodel,
  /// Product variant (OpineDB's choice): x⊗y = xy,
  /// x⊕y = 1 - (1-x)(1-y).
  kProduct,
};

/// x ⊗ y under `variant`.
inline double And(Variant variant, double x, double y) {
  switch (variant) {
    case Variant::kGodel:
      return std::min(x, y);
    case Variant::kProduct:
      return x * y;
  }
  return 0.0;
}

/// x ⊕ y under `variant`.
inline double Or(Variant variant, double x, double y) {
  switch (variant) {
    case Variant::kGodel:
      return std::max(x, y);
    case Variant::kProduct:
      return 1.0 - (1.0 - x) * (1.0 - y);
  }
  return 0.0;
}

/// ¬x = 1 - x (both variants).
inline double Not(double x) { return 1.0 - x; }

/// A fuzzy boolean expression tree over leaf truth values.
///
/// Leaves are identified by an index; evaluation pulls the leaf degrees of
/// truth from a caller's lookup so the same compiled expression can be
/// evaluated for every entity.
class Expr {
 public:
  enum class Kind { kLeaf, kAnd, kOr, kNot };

  using Ptr = std::shared_ptr<const Expr>;

  /// Leaf referencing the `index`-th atomic condition.
  static Ptr Leaf(size_t index);
  /// Conjunction of `children` (at least one).
  static Ptr MakeAnd(std::vector<Ptr> children);
  /// Disjunction of `children` (at least one).
  static Ptr MakeOr(std::vector<Ptr> children);
  /// Negation.
  static Ptr MakeNot(Ptr child);

  Kind kind() const { return kind_; }
  size_t leaf_index() const { return leaf_index_; }
  const std::vector<Ptr>& children() const { return children_; }

  /// Evaluates the expression; `leaf(i)` maps leaf index i to its degree
  /// of truth in [0, 1]. Children fold left to right. `leaf` is a
  /// template parameter, so a per-entity evaluation calls it directly.
  template <typename LeafFn>
  double Evaluate(Variant variant, const LeafFn& leaf) const {
    switch (kind_) {
      case Kind::kLeaf:
        return leaf(leaf_index_);
      case Kind::kAnd: {
        double acc = children_[0]->Evaluate(variant, leaf);
        for (size_t i = 1; i < children_.size(); ++i) {
          acc = And(variant, acc, children_[i]->Evaluate(variant, leaf));
        }
        return acc;
      }
      case Kind::kOr: {
        double acc = children_[0]->Evaluate(variant, leaf);
        for (size_t i = 1; i < children_.size(); ++i) {
          acc = Or(variant, acc, children_[i]->Evaluate(variant, leaf));
        }
        return acc;
      }
      case Kind::kNot:
        return Not(children_[0]->Evaluate(variant, leaf));
    }
    return 0.0;
  }

  /// Number of leaves (max leaf index + 1) in the expression.
  size_t NumLeaves() const;

  /// Renders e.g. "(p0 ⊗ (p1 ⊕ p2))" for diagnostics.
  std::string ToString() const;

 private:
  Expr(Kind kind, size_t leaf_index, std::vector<Ptr> children)
      : kind_(kind), leaf_index_(leaf_index),
        children_(std::move(children)) {}

  Kind kind_;
  size_t leaf_index_ = 0;
  std::vector<Ptr> children_;
};

}  // namespace opinedb::fuzzy

#endif  // OPINEDB_FUZZY_LOGIC_H_
