// Row partitioning of an SPD system for the distributed solver layer.
//
// A Partition assigns every global row to exactly one of P parts; a
// LocalSystem materializes one part's rows with columns renumbered into a
// local space — owned columns first (ascending global order), then halo
// columns (off-part couplings, also ascending) — and splits the block row
// into an *interior* matrix (owned x owned, also the restricted-additive-
// Schwarz subdomain matrix the per-part SPCG preconditioner is built from)
// and a *boundary* matrix (owned x halo). The split is what the rank matvec
// exploits: the interior SpMV needs no remote data and can run while the
// halo values are in flight.
//
// Strategies:
//   * kContiguous — balanced contiguous row blocks; optimal for matrices
//     already in a banded/natural order (small edge cut by construction).
//   * kBfsGreedy  — greedy graph growing: BFS fronts grow each part to its
//     balanced size, seeded per connected component, which keeps parts
//     connected and cuts far fewer edges than contiguous splitting on
//     shuffled or irregular orderings.
// Both accept an RCM pre-pass (reverse_cuthill_mckee from sparse/reorder.h):
// rows are bucketed by their *RCM position* instead of their natural index,
// so contiguous blocks become low-bandwidth, well-connected slices while the
// local row order (and therefore all numerics) stays ascending-global.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "sparse/csr.h"
#include "sparse/reorder.h"

namespace spcg {

struct PartitionOptions {
  enum class Strategy { kContiguous, kBfsGreedy };
  Strategy strategy = Strategy::kContiguous;
  /// Bucket rows by their reverse_cuthill_mckee position before splitting
  /// (locality pre-pass; kContiguous only — kBfsGreedy discovers locality
  /// through the graph itself).
  bool rcm_prepass = false;
};

inline const char* to_string(PartitionOptions::Strategy s) {
  return s == PartitionOptions::Strategy::kContiguous ? "contiguous"
                                                      : "bfs-greedy";
}

/// Assignment of every global row to one part. `owned[p]` lists part p's
/// rows in ascending global order — that order *is* the local row order of
/// p's LocalSystem, so local<->global maps are just this array plus
/// binary search.
struct Partition {
  index_t parts = 0;
  index_t global_rows = 0;
  std::vector<index_t> part_of;             // global row -> owning part
  std::vector<std::vector<index_t>> owned;  // per part, ascending global rows
};

/// Throws spcg::Error unless every global row is owned exactly once and the
/// ownership lists agree with part_of (the "every row exactly once"
/// invariant of the distributed layer).
inline void validate_partition(const Partition& p) {
  SPCG_CHECK(p.parts >= 1);
  SPCG_CHECK(static_cast<index_t>(p.owned.size()) == p.parts);
  SPCG_CHECK(static_cast<index_t>(p.part_of.size()) == p.global_rows);
  std::vector<char> seen(static_cast<std::size_t>(p.global_rows), 0);
  for (index_t r = 0; r < p.parts; ++r) {
    index_t prev = -1;
    for (const index_t g : p.owned[static_cast<std::size_t>(r)]) {
      SPCG_CHECK_MSG(g >= 0 && g < p.global_rows, "row " << g << " out of range");
      SPCG_CHECK_MSG(g > prev, "owned list of part " << r << " not ascending");
      SPCG_CHECK_MSG(!seen[static_cast<std::size_t>(g)],
                     "row " << g << " owned twice");
      SPCG_CHECK_MSG(p.part_of[static_cast<std::size_t>(g)] == r,
                     "part_of disagrees with owned list at row " << g);
      seen[static_cast<std::size_t>(g)] = 1;
      prev = g;
    }
  }
  for (index_t g = 0; g < p.global_rows; ++g)
    SPCG_CHECK_MSG(seen[static_cast<std::size_t>(g)], "row " << g << " unowned");
}

namespace detail {

/// Balanced block boundaries: part r covers positions [n*r/P, n*(r+1)/P).
inline index_t block_of(index_t position, index_t n, index_t parts) {
  // Inverse of the boundary formula, robust to the remainder distribution.
  const std::size_t guess = (static_cast<std::size_t>(position) + 1) *
                                static_cast<std::size_t>(parts) /
                                static_cast<std::size_t>(n);
  index_t r = static_cast<index_t>(guess);
  if (r >= parts) r = parts - 1;
  auto lo = [&](index_t part) {
    return static_cast<index_t>(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(part) /
                                static_cast<std::size_t>(parts));
  };
  while (position < lo(r)) --r;
  while (position >= lo(r + 1)) ++r;
  return r;
}

inline Partition finalize_partition(index_t n, index_t parts,
                                    std::vector<index_t> part_of) {
  Partition p;
  p.parts = parts;
  p.global_rows = n;
  p.part_of = std::move(part_of);
  p.owned.resize(static_cast<std::size_t>(parts));
  for (index_t g = 0; g < n; ++g)
    p.owned[static_cast<std::size_t>(p.part_of[static_cast<std::size_t>(g)])]
        .push_back(g);  // ascending by construction of the scan
  return p;
}

}  // namespace detail

/// Partition the rows of square A into `parts` parts under `opt`.
template <class T>
Partition make_partition(const Csr<T>& a, index_t parts,
                         const PartitionOptions& opt = {}) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK_MSG(parts >= 1 && parts <= a.rows,
                 "parts " << parts << " vs rows " << a.rows);
  const index_t n = a.rows;
  std::vector<index_t> part_of(static_cast<std::size_t>(n), -1);

  if (opt.strategy == PartitionOptions::Strategy::kContiguous) {
    if (opt.rcm_prepass) {
      const Permutation perm = reverse_cuthill_mckee(a);
      for (index_t g = 0; g < n; ++g)
        part_of[static_cast<std::size_t>(g)] =
            detail::block_of(perm[static_cast<std::size_t>(g)], n, parts);
    } else {
      for (index_t g = 0; g < n; ++g)
        part_of[static_cast<std::size_t>(g)] = detail::block_of(g, n, parts);
    }
    return detail::finalize_partition(n, parts, std::move(part_of));
  }

  // kBfsGreedy: grow parts through BFS fronts. Every part fills to its
  // balanced size before the next one starts; fronts are seeded once per
  // connected component (lowest unassigned vertex, deterministic) so no
  // component is split gratuitously and none is missed.
  index_t components = 0;
  const std::vector<index_t> comp = connected_components(a, &components);
  (void)comp;  // labels are implicit in the seed scan below
  index_t assigned = 0;
  index_t current = 0;
  auto part_full = [&](index_t r) {
    const index_t hi = static_cast<index_t>(static_cast<std::size_t>(n) *
                                            (static_cast<std::size_t>(r) + 1) /
                                            static_cast<std::size_t>(parts));
    return assigned >= hi;
  };
  std::queue<index_t> q;
  auto assign = [&](index_t v) {
    while (current + 1 < parts && part_full(current)) ++current;
    part_of[static_cast<std::size_t>(v)] = current;
    ++assigned;
  };
  for (index_t seed = 0; seed < n; ++seed) {
    if (part_of[static_cast<std::size_t>(seed)] >= 0) continue;
    assign(seed);
    q.push(seed);
    while (!q.empty()) {
      const index_t v = q.front();
      q.pop();
      for (const index_t w : a.row_cols(v)) {
        if (part_of[static_cast<std::size_t>(w)] < 0) {
          assign(w);
          q.push(w);
        }
      }
    }
  }
  return detail::finalize_partition(n, parts, std::move(part_of));
}

/// Edge-cut and balance summary of a partition against its matrix.
struct PartitionStats {
  index_t edge_cut = 0;   // stored entries (i, j) with part(i) != part(j)
  index_t min_rows = 0;
  index_t max_rows = 0;
  double imbalance = 1.0;  // max_rows / ceil(n / parts)
};

template <class T>
PartitionStats partition_stats(const Csr<T>& a, const Partition& p) {
  PartitionStats s;
  s.min_rows = a.rows;
  for (const auto& rows : p.owned) {
    s.min_rows = std::min(s.min_rows, static_cast<index_t>(rows.size()));
    s.max_rows = std::max(s.max_rows, static_cast<index_t>(rows.size()));
  }
  for (index_t i = 0; i < a.rows; ++i) {
    for (const index_t j : a.row_cols(i)) {
      if (p.part_of[static_cast<std::size_t>(i)] !=
          p.part_of[static_cast<std::size_t>(j)])
        ++s.edge_cut;
    }
  }
  const index_t ideal = (a.rows + p.parts - 1) / p.parts;
  s.imbalance = ideal == 0 ? 1.0
                           : static_cast<double>(s.max_rows) /
                                 static_cast<double>(ideal);
  return s;
}

/// One part's rows in local numbering, split into interior and boundary
/// blocks, plus the gather lists of its halo exchange.
template <class T>
struct LocalSystem {
  index_t part = 0;
  std::vector<index_t> owned;  // local row -> global row, ascending
  std::vector<index_t> halo;   // halo slot -> global column, ascending

  /// Interior block: owned rows x owned columns (local numbering). This is
  /// also the restricted-additive-Schwarz subdomain matrix the per-part
  /// preconditioner factorizes (SPD since it is a principal submatrix of an
  /// SPD A). For parts == 1 it is bitwise-identical to A.
  Csr<T> a_interior;
  /// Boundary block: owned rows x halo slots. Local SpMV is
  /// y = a_interior * x_owned + a_boundary * x_halo.
  Csr<T> a_boundary;

  /// Gather list against one neighbor: this part fills halo slot
  /// dst_halo[k] with the neighbor's owned value at src_local[k].
  struct HaloEdge {
    index_t neighbor = 0;
    std::vector<index_t> src_local;
    std::vector<index_t> dst_halo;
  };
  std::vector<HaloEdge> edges;  // ascending by neighbor

  index_t interior_rows = 0;  // rows with no boundary entry (stat)

  [[nodiscard]] index_t rows() const {
    return static_cast<index_t>(owned.size());
  }
  [[nodiscard]] index_t halo_size() const {
    return static_cast<index_t>(halo.size());
  }
};

/// Materialize every part's LocalSystem from the global matrix.
template <class T>
std::vector<LocalSystem<T>> build_local_systems(const Csr<T>& a,
                                                const Partition& p) {
  SPCG_CHECK(a.rows == a.cols);
  SPCG_CHECK(p.global_rows == a.rows);
  // Position of each global row inside its owner's owned list.
  std::vector<index_t> local_of(static_cast<std::size_t>(a.rows), -1);
  for (index_t r = 0; r < p.parts; ++r) {
    const auto& rows = p.owned[static_cast<std::size_t>(r)];
    for (std::size_t l = 0; l < rows.size(); ++l)
      local_of[static_cast<std::size_t>(rows[l])] = static_cast<index_t>(l);
  }

  std::vector<LocalSystem<T>> out(static_cast<std::size_t>(p.parts));
  for (index_t r = 0; r < p.parts; ++r) {
    LocalSystem<T>& loc = out[static_cast<std::size_t>(r)];
    loc.part = r;
    loc.owned = p.owned[static_cast<std::size_t>(r)];
    const index_t n_loc = loc.rows();

    // Halo: every off-part column referenced by this part's rows.
    for (const index_t g : loc.owned) {
      for (const index_t j : a.row_cols(g)) {
        if (p.part_of[static_cast<std::size_t>(j)] != r) loc.halo.push_back(j);
      }
    }
    std::sort(loc.halo.begin(), loc.halo.end());
    loc.halo.erase(std::unique(loc.halo.begin(), loc.halo.end()),
                   loc.halo.end());
    auto halo_slot = [&](index_t g) {
      return static_cast<index_t>(
          std::lower_bound(loc.halo.begin(), loc.halo.end(), g) -
          loc.halo.begin());
    };

    // Split each owned row into interior / boundary entries. Owned and halo
    // lists are ascending in global order, so local column indices stay
    // sorted within each row.
    loc.a_interior = Csr<T>(n_loc, n_loc);
    loc.a_boundary = Csr<T>(n_loc, loc.halo_size());
    for (index_t l = 0; l < n_loc; ++l) {
      const index_t g = loc.owned[static_cast<std::size_t>(l)];
      bool has_boundary = false;
      for (index_t q = a.rowptr[static_cast<std::size_t>(g)];
           q < a.rowptr[static_cast<std::size_t>(g) + 1]; ++q) {
        const index_t j = a.colind[static_cast<std::size_t>(q)];
        const T v = a.values[static_cast<std::size_t>(q)];
        if (p.part_of[static_cast<std::size_t>(j)] == r) {
          loc.a_interior.colind.push_back(local_of[static_cast<std::size_t>(j)]);
          loc.a_interior.values.push_back(v);
        } else {
          loc.a_boundary.colind.push_back(halo_slot(j));
          loc.a_boundary.values.push_back(v);
          has_boundary = true;
        }
      }
      loc.a_interior.rowptr[static_cast<std::size_t>(l) + 1] =
          static_cast<index_t>(loc.a_interior.colind.size());
      loc.a_boundary.rowptr[static_cast<std::size_t>(l) + 1] =
          static_cast<index_t>(loc.a_boundary.colind.size());
      if (!has_boundary) ++loc.interior_rows;
    }

    // Gather lists, grouped by owning neighbor (one edge per neighbor,
    // ascending; slot lists inherit the halo's ascending order).
    std::vector<index_t> edge_of(static_cast<std::size_t>(p.parts), -1);
    for (std::size_t h = 0; h < loc.halo.size(); ++h) {
      const index_t g = loc.halo[h];
      const index_t owner = p.part_of[static_cast<std::size_t>(g)];
      if (edge_of[static_cast<std::size_t>(owner)] < 0) {
        edge_of[static_cast<std::size_t>(owner)] =
            static_cast<index_t>(loc.edges.size());
        loc.edges.push_back({owner, {}, {}});
      }
      auto& edge =
          loc.edges[static_cast<std::size_t>(edge_of[static_cast<std::size_t>(owner)])];
      edge.src_local.push_back(local_of[static_cast<std::size_t>(g)]);
      edge.dst_halo.push_back(static_cast<index_t>(h));
    }
    std::sort(loc.edges.begin(), loc.edges.end(),
              [](const auto& x, const auto& y) {
                return x.neighbor < y.neighbor;
              });
  }
  return out;
}

/// Gather the owned slice of a global vector (local[l] = global[owned[l]]).
template <class T>
std::vector<T> gather_local(std::span<const T> global,
                            const std::vector<index_t>& owned) {
  std::vector<T> out;
  out.reserve(owned.size());
  for (const index_t g : owned) out.push_back(global[static_cast<std::size_t>(g)]);
  return out;
}

/// Scatter a local slice back into a global vector.
template <class T>
void scatter_local(std::span<const T> local,
                   const std::vector<index_t>& owned, std::span<T> global) {
  SPCG_CHECK(local.size() == owned.size());
  for (std::size_t l = 0; l < owned.size(); ++l)
    global[static_cast<std::size_t>(owned[l])] = local[l];
}

}  // namespace spcg
