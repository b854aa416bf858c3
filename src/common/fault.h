#ifndef OPINEDB_COMMON_FAULT_H_
#define OPINEDB_COMMON_FAULT_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace opinedb::fault {

/// The failure raised at an armed fault site. Serving-path code treats
/// it like any other std::exception (catch, degrade, count); tests
/// catch it specifically to assert a site actually fired.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Blast radius of a fault site: what a fired site does to the running
/// system, and therefore which drill owns it.
enum class SiteKind {
  /// OPINEDB_FAULT throws into the serving path's degradation cascade:
  /// the query degrades one stage (or one cache layer) and keeps
  /// serving. tests/fault_injection_test.cc sweeps every entry across
  /// every plan shape.
  kDegrade,
  /// OPINEDB_FAULT_HIT in the snapshot commit protocol: instead of
  /// throwing, SnapshotStore::Commit simulates a crash or media fault —
  /// it stops mid-protocol (or silently corrupts the written bytes for
  /// storage.bitflip) and leaves the directory in exactly the state a
  /// real power cut would. tests/crash_consistency_test.cc sweeps these.
  kStorage,
  /// OPINEDB_FAULT_HIT in the WAL append protocol and the engine's
  /// checkpoint fold: wal_short_write leaves a torn record on disk and
  /// fails the append, wal_fsync leaves the record in the page cache but
  /// reports the durability failure, and wal_fold crashes a checkpoint
  /// after the new snapshot generation committed but before the folded
  /// segment was retired. tests/wal_test.cc and tests/ingest_test.cc
  /// drill these.
  kWal,
  /// The HTTP front door (src/server/httpd.cc): a fired site degrades
  /// exactly one connection or response — accept drops the new
  /// connection, read abandons the in-flight request, write substitutes
  /// a well-formed 500 without poisoning the keep-alive stream, and shed
  /// forces the admission-control 429 path.
  /// tests/fault_injection_test.cc sweeps these over a live loopback
  /// server.
  kServer,
  /// Replication (src/repl/ + engine promote): fetch simulates a
  /// partitioned primary (the cycle fails Unavailable and the backoff
  /// loop retries), apply simulates a crash between journaling batches
  /// (never a double apply, never a loss), checksum corrupts the
  /// follower's computed batch fingerprint (typed DataLoss, nothing
  /// applied), and promote fails OpineDb::Promote before the read-only
  /// flag flips. tests/repl_test.cc drills these.
  kRepl,
};

/// One named fault site compiled into the library.
struct Site {
  const char* name;
  SiteKind kind;
};

/// The one catalog of fault sites. Keep it in sync with the
/// OPINEDB_FAULT / OPINEDB_FAULT_HIT call sites: the suite that owns
/// each kind iterates its entries and fails on any entry no drill
/// reached, so a stale entry or a new site without a drill fails loudly.
inline constexpr Site kSites[] = {
    // Interpreter stages and the predicate preparation around them.
    {"interpret.w2v", SiteKind::kDegrade},
    {"interpret.cooccur", SiteKind::kDegrade},
    {"interpret.embed", SiteKind::kDegrade},
    // InvertedIndex::TopKWeighted entry.
    {"index.scan", SiteKind::kDegrade},
    // ConditionScorer per (entity, atom); TextFallbackDegree entry; the
    // degree-list allocation in SubjectiveScoreOp.
    {"score.features", SiteKind::kDegrade},
    {"score.text_fallback", SiteKind::kDegrade},
    {"score.alloc", SiteKind::kDegrade},
    // Interpretation- and result-cache consults and fills.
    {"cache.interp_lookup", SiteKind::kDegrade},
    {"cache.interp_insert", SiteKind::kDegrade},
    {"cache.result_lookup", SiteKind::kDegrade},
    {"cache.result_insert", SiteKind::kDegrade},
    // Snapshot commit: torn tmp write, failed data fsync, crash before
    // the data rename, crash between data and MANIFEST renames,
    // post-write bit rot.
    {"storage.short_write", SiteKind::kStorage},
    {"storage.fsync", SiteKind::kStorage},
    {"storage.rename_data", SiteKind::kStorage},
    {"storage.rename_manifest", SiteKind::kStorage},
    {"storage.bitflip", SiteKind::kStorage},
    // WAL: torn record, failed segment fsync, crash between checkpoint
    // commit and segment retirement.
    {"storage.wal_short_write", SiteKind::kWal},
    {"storage.wal_fsync", SiteKind::kWal},
    {"storage.wal_fold", SiteKind::kWal},
    // Front door: after ::accept, before each ::recv, before response
    // serialization, at the admission decision.
    {"server.accept", SiteKind::kServer},
    {"server.read", SiteKind::kServer},
    {"server.write", SiteKind::kServer},
    {"server.shed", SiteKind::kServer},
    // Replication client: before each fetch, before each record apply,
    // on the computed batch fingerprint; engine Promote before the flip.
    {"repl.fetch", SiteKind::kRepl},
    {"repl.apply", SiteKind::kRepl},
    {"repl.checksum", SiteKind::kRepl},
    {"repl.promote", SiteKind::kRepl},
};

/// The names of every catalog entry of `kind`, in catalog order.
std::vector<const char*> SitesOfKind(SiteKind kind);

/// True when the library was compiled with fault injection
/// (OPINEDB_ENABLE_FAULT_INJECTION); release builds compile the macro
/// out entirely and this returns false.
bool CompiledIn();

/// Arms `site` to fail exactly once, on its `nth` hit (1-based) counted
/// from this call. Re-arming a site resets its hit counter. Thread-safe.
void Arm(std::string_view site, uint64_t nth);

/// Disarms every site and clears all hit counters.
void DisarmAll();

/// Hits observed at `site` since it was armed (0 for unarmed sites —
/// unarmed sites are never counted, so the zero-fault path stays free).
uint64_t HitCount(std::string_view site);

/// The hot-path check behind OPINEDB_FAULT: false unless some site is
/// armed; for armed sites, counts the hit and reports whether this is
/// the fatal one (then self-disarms, so later hits succeed — the shape
/// graceful-degradation tests need).
bool ShouldFail(const char* site);

}  // namespace opinedb::fault

/// Deterministic fault-injection point:
///
///   OPINEDB_FAULT("score.features");
///
/// Compiled out (a no-op with zero code) unless the build defines
/// OPINEDB_ENABLE_FAULT_INJECTION (CMake option OPINEDB_FAULT_INJECTION,
/// default ON except in plain Release). When compiled in but unarmed,
/// the cost is one relaxed atomic load and a predictable branch.
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
#define OPINEDB_FAULT(site)                                         \
  do {                                                              \
    if (::opinedb::fault::ShouldFail(site)) {                       \
      throw ::opinedb::fault::FaultInjected(site);                  \
    }                                                               \
  } while (0)
#else
#define OPINEDB_FAULT(site) ((void)0)
#endif

/// Non-throwing fault check for code that models faults as protocol
/// state rather than exceptions (the snapshot store's crash
/// simulation): evaluates to true exactly when OPINEDB_FAULT(site)
/// would have thrown, and to constant false when fault injection is
/// compiled out.
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
#define OPINEDB_FAULT_HIT(site) (::opinedb::fault::ShouldFail(site))
#else
#define OPINEDB_FAULT_HIT(site) false
#endif

#endif  // OPINEDB_COMMON_FAULT_H_
