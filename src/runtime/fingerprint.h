// Matrix and option fingerprints — the cache keys of the runtime layer.
//
// A fingerprint separates the *pattern* (rows/cols/rowptr/colind) from the
// *values* so callers can reason about the two invalidation granularities
// the setup pipeline actually has: a pattern change invalidates symbolic
// work (ILU(K) fill, level schedules), a value change invalidates numeric
// work (sparsification choice, factor values). The setup cache keys on
// both, plus a digest of the setup-relevant options, so two sessions with
// the same matrix but different fill levels never collide.
//
// Every input — each CSR array, each scalar, each option — goes through one
// hash, XXH64: four independent 64-bit lanes consume 32-byte stripes, then
// the lanes merge, the byte length is added, the trailing words and bytes
// are mixed in, and a final avalanche spreads every input bit over the
// result. Inputs are chained through the seed. Words are read in host byte
// order (little-endian on every supported host), so hashes are
// deterministic across runs and processes of the same build. Fingerprinting
// is on the per-step path of TransientSession and the per-request path of
// SolverSession, so it must run near memory bandwidth: one multiply-rotate
// per 8-byte word per lane, not one multiply per byte. A changed generator
// changes the fingerprint and therefore invalidates any cached setup built
// from the old bits; a changed hash changes every persisted key (TuneDb
// bumps its schema version with it).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>

#include "core/spcg.h"
#include "sparse/csr.h"
#include "support/trace.h"

namespace spcg {

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kXxPrime2, 31) * kXxPrime1;
}

inline std::uint64_t xx_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xx_round(0, lane)) * kXxPrime1 + kXxPrime4;
}

/// XXH64 of `n` bytes at `data`, seeded with `seed`.
inline std::uint64_t hash_bytes(const void* data, std::size_t n,
                                std::uint64_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, load_u64(p));
      v2 = xx_round(v2, load_u64(p + 8));
      v3 = xx_round(v3, load_u64(p + 16));
      v4 = xx_round(v4, load_u64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xx_round(0, load_u64(p)), 27) * kXxPrime1 + kXxPrime4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_u32(p) * kXxPrime1), 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kXxPrime5), 11) * kXxPrime1;
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

template <class T>
std::uint64_t hash_span(std::span<const T> xs, std::uint64_t seed = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash_bytes(xs.data(), xs.size() * sizeof(T), seed);
}

template <class T>
std::uint64_t hash_value(const T& x, std::uint64_t seed = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash_bytes(&x, sizeof(T), seed);
}

}  // namespace detail

/// Identity of a CSR matrix for caching purposes.
struct MatrixFingerprint {
  std::uint64_t pattern_hash = 0;  // rows, cols, rowptr, colind
  std::uint64_t values_hash = 0;   // raw value bytes
  index_t rows = 0;
  index_t nnz = 0;

  friend bool operator==(const MatrixFingerprint& a,
                         const MatrixFingerprint& b) {
    return a.pattern_hash == b.pattern_hash &&
           a.values_hash == b.values_hash && a.rows == b.rows &&
           a.nnz == b.nnz;
  }

  /// Single 64-bit mix of both hashes (for hash tables / logs).
  [[nodiscard]] std::uint64_t combined() const {
    std::uint64_t h = detail::hash_value(pattern_hash);
    h = detail::hash_value(values_hash, h);
    h = detail::hash_value(rows, h);
    return detail::hash_value(nnz, h);
  }
};

/// Fingerprint a matrix: one pass over the pattern arrays, one over values.
/// Traced as its own span: hashing is the per-request cost a cache hit
/// cannot amortize, and a per-step cost of every transient step.
template <class T>
MatrixFingerprint fingerprint(const Csr<T>& a) {
  Span span("fingerprint", "runtime");
  span.arg("rows", static_cast<std::int64_t>(a.rows));
  MatrixFingerprint fp;
  fp.rows = a.rows;
  fp.nnz = a.nnz();
  std::uint64_t h = detail::hash_value(a.rows);
  h = detail::hash_value(a.cols, h);
  h = detail::hash_span(std::span<const index_t>(a.rowptr), h);
  fp.pattern_hash = detail::hash_span(std::span<const index_t>(a.colind), h);
  fp.values_hash = detail::hash_span(std::span<const T>(a.values));
  return fp;
}

/// Digest of every option that changes the *setup* (sparsify decision,
/// factorization, schedules). Solve-phase options (pcg tolerances, executor
/// choice) are deliberately excluded: setups are shareable across them.
inline std::uint64_t setup_options_digest(const SpcgOptions& opt) {
  std::uint64_t h = detail::hash_value(opt.sparsify_enabled);
  h = detail::hash_span(std::span<const double>(opt.sparsify.ratios), h);
  h = detail::hash_value(opt.sparsify.tau, h);
  h = detail::hash_value(opt.sparsify.omega_percent, h);
  h = detail::hash_value(static_cast<int>(opt.sparsify.estimator), h);
  h = detail::hash_value(static_cast<int>(opt.sparsify.denominator), h);
  h = detail::hash_value(opt.sparsify.lanczos_steps, h);
  h = detail::hash_value(static_cast<int>(opt.preconditioner), h);
  h = detail::hash_value(opt.fill_level, h);
  h = detail::hash_value(opt.max_row_fill, h);
  h = detail::hash_value(opt.ilu.boost_zero_pivots, h);
  h = detail::hash_value(opt.ilu.pivot_floor, h);
  return h;
}

/// Composite cache key: matrix identity x setup-relevant options.
struct SetupKey {
  MatrixFingerprint matrix;
  std::uint64_t options_digest = 0;

  friend bool operator==(const SetupKey& a, const SetupKey& b) {
    return a.matrix == b.matrix && a.options_digest == b.options_digest;
  }
};

struct SetupKeyHash {
  std::size_t operator()(const SetupKey& k) const {
    return static_cast<std::size_t>(
        detail::hash_value(k.options_digest, k.matrix.combined()));
  }
};

template <class T>
SetupKey make_setup_key(const Csr<T>& a, const SpcgOptions& opt) {
  return SetupKey{fingerprint(a), setup_options_digest(opt)};
}

/// Pattern-only projection of a SetupKey: everything except values_hash.
/// Two SetupKeys with equal pattern keys describe the same sparsity
/// structure under the same setup options — a cached setup for one is a
/// valid symbolic donor (ILU pattern, level schedules, sparsify pattern
/// decision) for the other; only factor numerics differ. This is the key of
/// SetupCache's secondary index behind the transient fast path.
struct SetupPatternKey {
  std::uint64_t pattern_hash = 0;
  index_t rows = 0;
  index_t nnz = 0;
  std::uint64_t options_digest = 0;

  friend bool operator==(const SetupPatternKey& a, const SetupPatternKey& b) {
    return a.pattern_hash == b.pattern_hash && a.rows == b.rows &&
           a.nnz == b.nnz && a.options_digest == b.options_digest;
  }
};

struct SetupPatternKeyHash {
  std::size_t operator()(const SetupPatternKey& k) const {
    std::uint64_t h = detail::hash_value(k.pattern_hash);
    h = detail::hash_value(k.rows, h);
    h = detail::hash_value(k.nnz, h);
    return static_cast<std::size_t>(detail::hash_value(k.options_digest, h));
  }
};

inline SetupPatternKey pattern_key_of(const SetupKey& k) {
  return SetupPatternKey{k.matrix.pattern_hash, k.matrix.rows, k.matrix.nnz,
                         k.options_digest};
}

/// Same, reusing an already-computed fingerprint (e.g. shared across the
/// fill-level candidates of tune_fill_level).
inline SetupKey make_setup_key(const MatrixFingerprint& fp,
                               const SpcgOptions& opt) {
  return SetupKey{fp, setup_options_digest(opt)};
}

}  // namespace spcg
