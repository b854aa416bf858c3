#include "cache/interpretation_cache.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace opinedb::cache {

namespace {

constexpr char kInterpCacheMagic[] = "opinedb-interp-cache";
constexpr int kInterpCacheVersion = 1;

/// Plausibility bounds on deserialized sizes (same doctrine as
/// core/serialize.cc): a corrupt or truncated payload must produce a
/// ParseError, not a multi-gigabyte allocation.
constexpr size_t kMaxEntries = 1u << 22;       // 4M predicates.
constexpr size_t kMaxAtoms = 1u << 12;         // Atoms per predicate.
constexpr size_t kMaxRepDim = 1u << 16;        // Embedding dims.
constexpr size_t kMaxStringLength = 1u << 20;  // 1 MiB per key.

/// Netstring-style string encoding: "<length>:<bytes>" — robust to
/// spaces inside normalized predicates.
void WriteString(const std::string& s, std::ostream* out) {
  *out << s.size() << ':' << s;
}

Result<std::string> ReadString(std::istream* in) {
  size_t length = 0;
  char colon = 0;
  if (!(*in >> length) || !in->get(colon) || colon != ':') {
    return Status::ParseError("bad string header");
  }
  if (length > kMaxStringLength) {
    return Status::ParseError("implausible string length " +
                              std::to_string(length));
  }
  std::string s(length, '\0');
  if (!in->read(s.data(), static_cast<std::streamsize>(length))) {
    return Status::ParseError("truncated string");
  }
  return s;
}

char MethodChar(core::InterpretMethod method) {
  switch (method) {
    case core::InterpretMethod::kWord2Vec:
      return 'w';
    case core::InterpretMethod::kCooccurrence:
      return 'c';
    case core::InterpretMethod::kTextFallback:
      return 't';
  }
  return 't';
}

Result<core::InterpretMethod> MethodFromChar(char c) {
  switch (c) {
    case 'w':
      return core::InterpretMethod::kWord2Vec;
    case 'c':
      return core::InterpretMethod::kCooccurrence;
    case 't':
      return core::InterpretMethod::kTextFallback;
    default:
      return Status::ParseError(std::string("unknown interpret method '") +
                                c + "'");
  }
}

}  // namespace

InterpretationCache::InterpretationCache(size_t num_shards,
                                         size_t byte_budget)
    : lru_(byte_budget, num_shards) {}

size_t InterpretationCache::ApproxBytes(const std::string& key,
                                        const Entry& entry) {
  // Same doctrine as ResultCache::ApproxBytes: flat struct size plus the
  // owned heap payloads, and a fixed 128 bytes for the map node, LRU
  // node and allocator slack.
  return 128 + key.size() + sizeof(Entry) +
         entry.interpretation.atoms.size() *
             sizeof(core::AtomInterpretation) +
         entry.rep.size() * sizeof(float);
}

bool InterpretationCache::Lookup(const std::string& key, uint64_t epoch,
                                 Entry* out) {
  return lru_.Lookup(key, epoch, out);
}

size_t InterpretationCache::Insert(const std::string& key, Entry entry) {
  const size_t bytes = ApproxBytes(key, entry);
  const uint64_t epoch = entry.epoch;
  return lru_.Insert(key, epoch, std::move(entry), bytes);
}

void InterpretationCache::Clear() { lru_.Clear(); }

Status SaveInterpretationCache(const InterpretationCache& cache,
                               uint64_t epoch, std::ostream* out) {
  // Snapshot the current entries under shard locks, then write sorted by
  // key: recency order is not stable across instances, and the
  // persistence suite pins save → open → save byte-identity.
  std::vector<std::pair<std::string, InterpretationCache::Entry>> entries;
  cache.lru_.ForEach(
      [&entries, epoch](const std::string& key,
                        const InterpretationCache::Entry& entry) {
        if (entry.epoch == epoch) entries.emplace_back(key, entry);
      });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  out->precision(std::numeric_limits<double>::max_digits10);
  *out << kInterpCacheMagic << ' ' << kInterpCacheVersion << '\n'
       << entries.size() << '\n';
  for (const auto& [key, entry] : entries) {
    WriteString(key, out);
    *out << ' ' << MethodChar(entry.interpretation.method) << ' '
         << (entry.interpretation.conjunctive ? 1 : 0) << ' '
         << entry.interpretation.confidence << ' ' << entry.sentiment
         << ' ' << entry.interpretation.atoms.size() << ' '
         << entry.rep.size() << '\n';
    for (const auto& atom : entry.interpretation.atoms) {
      *out << atom.attribute << ' ' << atom.marker << ' ' << atom.score
           << '\n';
    }
    for (size_t i = 0; i < entry.rep.size(); ++i) {
      if (i > 0) *out << ' ';
      *out << entry.rep[i];
    }
    if (!entry.rep.empty()) *out << '\n';
  }
  *out << "end\n";
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Status LoadInterpretationCache(
    std::istream* in, uint64_t epoch, InterpretationCache* cache,
    const std::function<bool(const InterpretationCache::Entry&)>& accept) {
  cache->Clear();
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kInterpCacheMagic) {
    return Status::ParseError("not an opinedb interpretation-cache payload");
  }
  if (version != kInterpCacheVersion) {
    return Status::NotSupported("interpretation-cache version " +
                                std::to_string(version));
  }
  size_t num_entries = 0;
  if (!(*in >> num_entries)) {
    return Status::ParseError("bad entry count");
  }
  if (num_entries > kMaxEntries) {
    cache->Clear();
    return Status::ParseError("implausible entry count " +
                              std::to_string(num_entries));
  }
  for (size_t i = 0; i < num_entries; ++i) {
    auto key = ReadString(in);
    if (!key.ok()) {
      cache->Clear();
      return key.status();
    }
    InterpretationCache::Entry entry;
    entry.epoch = epoch;
    char method = 0;
    int conjunctive = 0;
    size_t num_atoms = 0, rep_dim = 0;
    if (!(*in >> method >> conjunctive >>
          entry.interpretation.confidence >> entry.sentiment >> num_atoms >>
          rep_dim)) {
      cache->Clear();
      return Status::ParseError("bad entry header: " + *key);
    }
    auto parsed_method = MethodFromChar(method);
    if (!parsed_method.ok()) {
      cache->Clear();
      return parsed_method.status();
    }
    entry.interpretation.method = *parsed_method;
    entry.interpretation.conjunctive = conjunctive != 0;
    if (num_atoms > kMaxAtoms || rep_dim > kMaxRepDim) {
      cache->Clear();
      return Status::ParseError("implausible entry sizes for " + *key);
    }
    entry.interpretation.atoms.resize(num_atoms);
    for (auto& atom : entry.interpretation.atoms) {
      if (!(*in >> atom.attribute >> atom.marker >> atom.score)) {
        cache->Clear();
        return Status::ParseError("truncated atoms for " + *key);
      }
    }
    entry.rep.resize(rep_dim);
    for (auto& v : entry.rep) {
      if (!(*in >> v)) {
        cache->Clear();
        return Status::ParseError("truncated embedding for " + *key);
      }
    }
    if (accept && !accept(entry)) {
      cache->Clear();
      return Status::InvalidArgument("entry rejected: " + *key);
    }
    cache->Insert(*key, std::move(entry));
  }
  std::string sentinel;
  if (!(*in >> sentinel) || sentinel != "end") {
    // The count said we were done but the closing sentinel is missing:
    // the payload was truncated at an entry boundary.
    cache->Clear();
    return Status::ParseError("missing end sentinel");
  }
  return Status::OK();
}

}  // namespace opinedb::cache
