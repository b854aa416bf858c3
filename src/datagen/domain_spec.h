#ifndef OPINEDB_DATAGEN_DOMAIN_SPEC_H_
#define OPINEDB_DATAGEN_DOMAIN_SPEC_H_

#include <string>
#include <vector>

#include "core/schema.h"

namespace opinedb::datagen {

/// A graded opinion phrase: its surface text and its polarity in [-1, 1].
/// The generator samples phrases whose polarity tracks the entity's
/// latent quality for the attribute.
struct OpinionPhrase {
  std::string text;
  double polarity = 0.0;
};

/// The generator's specification of one subjective attribute.
struct AttributeSpec {
  std::string name;
  /// Aspect nouns reviews use for this attribute ("room", "carpet", ...).
  std::vector<std::string> aspect_nouns;
  /// Graded opinion vocabulary, best to worst mixtures allowed.
  std::vector<OpinionPhrase> opinions;
  core::SummaryKind kind = core::SummaryKind::kLinearlyOrdered;
  /// Designer-provided markers (empty = induce automatically).
  std::vector<std::string> markers;
};

/// A concept with no attribute of its own that reviews mention when some
/// underlying attributes are good — the substrate of the co-occurrence
/// interpretation method ("romantic getaway" etc.).
struct CorrelatedConcept {
  /// The phrase as it appears in reviews and in query predicates.
  std::string phrase;
  /// The sentence realization emitted into reviews.
  std::string sentence;
  /// Attributes (by index) whose latent quality must be high for the
  /// sentence to be emitted.
  std::vector<int> trigger_attributes;
  /// The attribute a human labeler would call closest (gold for
  /// Table 8); usually the first trigger.
  int gold_attribute = 0;
};

/// A hard query paraphrase: wording users type but reviews never use
/// (mostly out-of-vocabulary), with the attribute a human labeler would
/// assign. These are the cases where the w2v method loses confidence.
struct HardQuery {
  std::string text;
  /// Name of the gold attribute; empty = only text fallback could ever
  /// answer it (e.g. "good for motorcyclists").
  std::string gold_attribute;
};

/// A full synthetic domain specification.
struct DomainSpec {
  std::string name;
  std::vector<AttributeSpec> attributes;
  std::vector<CorrelatedConcept> concepts;
  std::vector<HardQuery> hard_queries;
  /// Off-topic filler sentences (no opinionated content).
  std::vector<std::string> fillers;

  int AttributeIndex(const std::string& attr_name) const;
};

/// The hotel domain (Booking.com stand-in).
DomainSpec HotelDomain();

/// The restaurant domain (Yelp stand-in).
DomainSpec RestaurantDomain();

/// A laptop domain used only for the Table 6 extractor datasets
/// (SemEval-14 Laptop stand-in).
DomainSpec LaptopDomain();

}  // namespace opinedb::datagen

#endif  // OPINEDB_DATAGEN_DOMAIN_SPEC_H_
