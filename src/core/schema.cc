#include "core/schema.h"

#include <algorithm>

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

std::vector<std::string> SubjectiveSchema::Markers() const {
  std::vector<std::string> markers;
  for (const auto& attribute : attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      if (std::find(markers.begin(), markers.end(), marker) ==
          markers.end()) {
        markers.push_back(marker);
      }
    }
  }
  return markers;
}

}  // namespace opinedb::core
