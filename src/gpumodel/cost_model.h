// Analytical execution model for the kernels of a PCG iteration and the
// preconditioner setup phases.
//
// Modeling approach (DESIGN.md §3): every kernel is a roofline term
// max(compute, memory) plus fixed launch overhead. Level-scheduled kernels
// (SpTRSV, wavefront ILU(0)) additionally pay one synchronization per
// wavefront and serialize row batches when a level holds more rows than the
// device can run concurrently — which is precisely the cost structure that
// makes wavefront reduction profitable.
//
// The model also accumulates byte/flop counters so benches can report the
// DRAM-utilization and compute-utilization shifts of paper §5.3.
#pragma once

#include <cstdint>
#include <vector>

#include "gpumodel/device.h"
#include "sparse/csr.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace spcg {

/// Aggregate cost of one (or a sum of) modeled operations.
struct OpCost {
  double seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;

  OpCost& operator+=(const OpCost& o) {
    seconds += o.seconds;
    flops += o.flops;
    bytes += o.bytes;
    return *this;
  }
  friend OpCost operator+(OpCost a, const OpCost& b) { return a += b; }
  friend OpCost operator*(double k, OpCost c) {
    c.seconds *= k;
    c.flops *= k;
    c.bytes *= k;
    return c;
  }

  [[nodiscard]] double gflops_rate() const {
    return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
};

/// Level-schedule shape of a triangular solve, decoupled from values.
struct TriSolveStructure {
  index_t n = 0;
  index_t nnz = 0;  // triangle nnz incl. the diagonal, stored or implicit
  std::vector<index_t> rows_per_level;
  std::vector<index_t> nnz_per_level;

  [[nodiscard]] index_t levels() const {
    return static_cast<index_t>(rows_per_level.size());
  }
};

/// Extract the structure for the `tri` triangle of `m` (which may be a full
/// combined LU factor; entries outside the triangle are ignored). Every row
/// counts its diagonal (level_nnz), so L of TriangularFactors, whose unit
/// diagonal is implicit, models like the lower part of a combined factor.
template <class T>
TriSolveStructure trisolve_structure(const Csr<T>& m, Triangle tri) {
  const LevelSchedule sched = level_schedule(m, tri);
  TriSolveStructure s;
  s.n = m.rows;
  s.rows_per_level.assign(static_cast<std::size_t>(sched.num_levels()), 0);
  for (index_t l = 0; l < sched.num_levels(); ++l)
    s.rows_per_level[static_cast<std::size_t>(l)] = sched.level_size(l);
  s.nnz_per_level = level_nnz(m, sched, tri);
  for (const index_t c : s.nnz_per_level) s.nnz += c;
  return s;
}

/// Shape of one PCG iteration (Algorithm 1 body): SpMV with A, two
/// triangular solves with the factor, and the BLAS-1 tail.
struct PcgIterationShape {
  index_t n = 0;
  index_t a_nnz = 0;
  TriSolveStructure lower;
  TriSolveStructure upper;
};

template <class T>
PcgIterationShape pcg_iteration_shape(const Csr<T>& a, const Csr<T>& lower,
                                      const Csr<T>& upper) {
  PcgIterationShape s;
  s.n = a.rows;
  s.a_nnz = a.nnz();
  s.lower = trisolve_structure(lower, Triangle::kLower);
  s.upper = trisolve_structure(upper, Triangle::kUpper);
  return s;
}

/// The shape over triangular factors.
template <class T>
PcgIterationShape pcg_iteration_shape(const Csr<T>& a,
                                      const TriangularFactors<T>& f) {
  return pcg_iteration_shape(a, f.l, f.u);
}

/// Theoretical FLOPs of one PCG iteration (paper §4.1: computed for the
/// non-sparsified baseline and reused for all methods when reporting rates).
double pcg_iteration_flops(index_t n, index_t a_nnz, index_t factor_nnz);

/// The analytical model for one device.
class CostModel {
 public:
  CostModel(DeviceSpec spec, int value_bytes);

  [[nodiscard]] const DeviceSpec& device() const { return spec_; }

  /// y = A x for CSR A.
  [[nodiscard]] OpCost spmv(index_t rows, index_t nnz) const;

  /// One fused BLAS-1 pass over n elements (dot, axpy, norm...):
  /// `vectors_touched` full-vector streams, `flops_per_element` ops.
  [[nodiscard]] OpCost blas1(index_t n, int vectors_touched,
                             int flops_per_element) const;

  /// Level-scheduled sparse triangular solve.
  [[nodiscard]] OpCost trisolve(const TriSolveStructure& s) const;

  /// Synchronization-free sparse triangular solve (Liu et al. / Capellini
  /// style): one kernel, rows busy-wait on their dependences, no barriers.
  /// The critical path still pays one dependent-latency hop per level, so
  /// wavefront reduction keeps helping — just less than with barriers.
  [[nodiscard]] OpCost trisolve_syncfree(const TriSolveStructure& s) const;

  /// Wavefront-scheduled ILU(0) factorization on the device (cuSPARSE
  /// csrilu02-style): level structure of the matrix pattern + the measured
  /// elimination work.
  [[nodiscard]] OpCost ilu0_factorization(const TriSolveStructure& s,
                                          std::uint64_t elimination_ops) const;

  /// Host-side ILU(K) factorization (SuperLU-style, sequential sparse code).
  [[nodiscard]] OpCost iluk_factorization_host(std::uint64_t elimination_ops,
                                               index_t pattern_nnz) const;

  /// Host-side cost of Algorithm 2 (sort + candidate passes over A).
  [[nodiscard]] OpCost sparsify_host(index_t nnz, int ratios_tried) const;

  /// Full PCG iteration: SpMV + L-solve + U-solve + BLAS-1 tail.
  [[nodiscard]] OpCost pcg_iteration(const PcgIterationShape& s) const;

 private:
  [[nodiscard]] double launch_s() const { return spec_.kernel_launch_us * 1e-6; }
  [[nodiscard]] double sync_s() const { return spec_.level_sync_us * 1e-6; }
  [[nodiscard]] double mem_s(double bytes) const {
    return bytes / (spec_.dram_gbps * 1e9);
  }
  [[nodiscard]] double flop_s(double flops) const {
    return flops / (spec_.peak_gflops * 1e9);
  }

  DeviceSpec spec_;
  int value_bytes_;
  int index_bytes_ = 4;
};

}  // namespace spcg
