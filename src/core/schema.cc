#include "core/schema.h"

namespace opinedb::core {

int MarkerSummaryType::MarkerIndex(const std::string& marker) const {
  for (size_t i = 0; i < markers.size(); ++i) {
    if (markers[i] == marker) return static_cast<int>(i);
  }
  return -1;
}

int SubjectiveSchema::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace opinedb::core
