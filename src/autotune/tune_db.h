// TuneDb — the persistent, versioned store of tuning winners.
//
// Each record keys on the exact MatrixFingerprint (pattern + values) and
// carries the structural feature vector, the winning TuneConfig and the
// score/iteration facts of the winning measured trial. Lookup answers two
// questions:
//   * find_exact(fingerprint)  — this very matrix was tuned before: reuse
//     the winner with zero measured trials (the amortization story);
//   * find_nearest(features)   — an unseen matrix warm-starts from the
//     winner of the structurally closest recorded matrix (the warm-start
//     story), subject to a distance threshold.
//
// Persistence is a single versioned JSON document (schema "spcg-tune-db").
// load_file distinguishes a missing file, a schema-version mismatch and a
// corrupt document so callers can choose their degradation (spcg-serve warns
// and continues in-memory-only on corruption instead of aborting).
//
// Thread safety: record/find/save may be called concurrently from tuner
// trials and service workers; all state is guarded by one mutex (the DB is
// consulted once per tune, never per iteration).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "autotune/config.h"
#include "autotune/features.h"
#include "runtime/fingerprint.h"

namespace spcg {

/// One tuned matrix: identity, structure, winner and how it was found.
struct TuneRecord {
  MatrixFingerprint fingerprint;
  MatrixFeatures features;
  TuneConfig config;
  double score = 0.0;             // iterations x modeled iteration seconds
  double per_iteration_seconds = 0.0;
  std::int32_t iterations = 0;    // of the winning measured trial
  std::uint64_t trials = 0;       // measured trials spent finding the winner
};

/// Outcome of loading a DB file.
enum class TuneDbLoad { kOk, kMissing, kVersionMismatch, kCorrupt };

inline const char* to_string(TuneDbLoad s) {
  switch (s) {
    case TuneDbLoad::kOk: return "ok";
    case TuneDbLoad::kMissing: return "missing";
    case TuneDbLoad::kVersionMismatch: return "version-mismatch";
    case TuneDbLoad::kCorrupt: return "corrupt";
  }
  return "unknown";
}

/// A nearest-neighbor match: the record plus its feature distance.
struct TuneNeighbor {
  TuneRecord record;
  double distance = 0.0;
};

class TuneDb {
 public:
  /// Current on-disk schema version. Bump on any incompatible layout change,
  /// including a change of the fingerprint hash the records are keyed by
  /// (2: XXH64 fingerprints); load_file rejects other versions with
  /// kVersionMismatch.
  static constexpr int kSchemaVersion = 2;

  /// Exact-fingerprint lookup.
  [[nodiscard]] std::optional<TuneRecord> find_exact(
      const MatrixFingerprint& fp) const;

  /// Closest recorded feature vector within `max_distance` (exclusive of
  /// the exact fingerprint `exclude`, so a matrix never warm-starts from
  /// itself). Empty when nothing qualifies.
  [[nodiscard]] std::optional<TuneNeighbor> find_nearest(
      const MatrixFeatures& features, double max_distance,
      const MatrixFingerprint* exclude = nullptr) const;

  /// Upsert by fingerprint: a new matrix is appended; a re-tuned matrix
  /// keeps whichever record has the better (smaller) score, so concurrent
  /// tuners can race benignly.
  void record(const TuneRecord& rec);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<TuneRecord> snapshot() const;
  void clear();

  /// Serialize to the versioned JSON document / parse one back.
  [[nodiscard]] std::string to_json() const;
  TuneDbLoad from_json(const std::string& text);

  /// File round-trip. save_file writes atomically enough for the tests
  /// (truncate + write + flush); load_file maps missing/corrupt/mismatched
  /// files to the TuneDbLoad enum and only replaces the in-memory records
  /// on kOk.
  bool save_file(const std::string& path) const;
  TuneDbLoad load_file(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::vector<TuneRecord> records_;
};

}  // namespace spcg
