#include "gpumodel/calibrate.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "precond/ilu.h"
#include "sparse/norms.h"
#include "sparse/ops.h"
#include "sptrsv/sptrsv.h"
#include "support/timer.h"

namespace spcg {

namespace {

constexpr int kUnknowns = 5;  // [launch_s, sync_s, per_byte, per_flop, row_s]

/// Design-matrix row of one measurement under the additive surrogate.
std::array<double, kUnknowns> design_row(const DeviceSpec& spec,
                                         const Measurement& m,
                                         int value_bytes) {
  const double vb = value_bytes;
  const double ib = 4.0;  // index_t is int32 throughout the repo
  std::array<double, kUnknowns> row{};
  switch (m.kind) {
    case Measurement::Kind::kSpmv: {
      row[0] = 1.0;
      row[2] = static_cast<double>(m.nnz) * (vb + ib) +
               static_cast<double>(m.rows) * (ib + 2.0 * vb);
      row[3] = 2.0 * static_cast<double>(m.nnz);
      break;
    }
    case Measurement::Kind::kBlas1: {
      row[0] = 1.0;
      row[2] = static_cast<double>(m.vectors_touched) *
               static_cast<double>(m.rows) * vb;
      row[3] = static_cast<double>(m.flops_per_element) *
               static_cast<double>(m.rows);
      break;
    }
    case Measurement::Kind::kTrisolve: {
      row[0] = 1.0;
      row[1] = static_cast<double>(m.structure.levels());
      const double concurrent = std::max(1.0, spec.concurrent_rows());
      double bytes = 0.0, flops = 0.0, batches = 0.0;
      for (index_t l = 0; l < m.structure.levels(); ++l) {
        const auto rows = static_cast<double>(
            m.structure.rows_per_level[static_cast<std::size_t>(l)]);
        const auto nnz = static_cast<double>(
            m.structure.nnz_per_level[static_cast<std::size_t>(l)]);
        bytes += nnz * (vb + ib) + rows * (ib + 2.0 * vb);
        flops += 2.0 * nnz;
        batches += std::ceil(rows / concurrent);
      }
      row[2] = bytes;
      row[3] = flops;
      row[4] = batches;
      break;
    }
  }
  return row;
}

/// Solve the kUnknowns x kUnknowns SPD system (G + ridge I) x = rhs by
/// Gaussian elimination with partial pivoting. False on a singular pivot.
bool solve_normal(std::array<std::array<double, kUnknowns>, kUnknowns> g,
                  std::array<double, kUnknowns> rhs,
                  std::array<double, kUnknowns>* x) {
  for (int col = 0; col < kUnknowns; ++col) {
    int pivot = col;
    for (int r = col + 1; r < kUnknowns; ++r)
      if (std::abs(g[static_cast<std::size_t>(r)][static_cast<std::size_t>(
              col)]) >
          std::abs(g[static_cast<std::size_t>(pivot)]
                    [static_cast<std::size_t>(col)]))
        pivot = r;
    std::swap(g[static_cast<std::size_t>(col)],
              g[static_cast<std::size_t>(pivot)]);
    std::swap(rhs[static_cast<std::size_t>(col)],
              rhs[static_cast<std::size_t>(pivot)]);
    const double d =
        g[static_cast<std::size_t>(col)][static_cast<std::size_t>(col)];
    if (std::abs(d) < 1e-300) return false;
    for (int r = col + 1; r < kUnknowns; ++r) {
      const double f = g[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(col)] /
                       d;
      for (int c = col; c < kUnknowns; ++c)
        g[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] -=
            f * g[static_cast<std::size_t>(col)][static_cast<std::size_t>(c)];
      rhs[static_cast<std::size_t>(r)] -=
          f * rhs[static_cast<std::size_t>(col)];
    }
  }
  for (int r = kUnknowns - 1; r >= 0; --r) {
    double acc = rhs[static_cast<std::size_t>(r)];
    for (int c = r + 1; c < kUnknowns; ++c)
      acc -= g[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] *
             (*x)[static_cast<std::size_t>(c)];
    (*x)[static_cast<std::size_t>(r)] =
        acc / g[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)];
  }
  return true;
}

double surrogate_seconds(const std::array<double, kUnknowns>& row,
                         const std::array<double, kUnknowns>& x) {
  double s = 0.0;
  for (int i = 0; i < kUnknowns; ++i)
    s += row[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
  return s;
}

std::array<double, kUnknowns> coefficients_of(const DeviceSpec& spec) {
  return {spec.kernel_launch_us * 1e-6, spec.level_sync_us * 1e-6,
          1.0 / (spec.dram_gbps * 1e9), 1.0 / (spec.peak_gflops * 1e9),
          spec.row_latency_us * 1e-6};
}

}  // namespace

CalibrationResult calibrate(const DeviceSpec& spec,
                            std::span<const Measurement> measurements,
                            int value_bytes) {
  CalibrationResult out;
  out.spec = spec;
  if (measurements.size() < kUnknowns) return out;

  // Normal equations G = D^T D, rhs = D^T t, with each row scaled by its
  // measured time so fast kernels carry the same relative weight as slow
  // ones (otherwise a single large trisolve dominates the fit).
  std::array<std::array<double, kUnknowns>, kUnknowns> g{};
  std::array<double, kUnknowns> rhs{};
  for (const Measurement& m : measurements) {
    if (m.seconds <= 0.0) continue;
    std::array<double, kUnknowns> row = design_row(spec, m, value_bytes);
    const double w = 1.0 / m.seconds;
    for (int i = 0; i < kUnknowns; ++i) {
      for (int j = 0; j < kUnknowns; ++j)
        g[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            w * w * row[static_cast<std::size_t>(i)] *
            row[static_cast<std::size_t>(j)];
      rhs[static_cast<std::size_t>(i)] +=
          w * w * row[static_cast<std::size_t>(i)] * m.seconds;
    }
  }
  // Ridge proportional to the prior coefficients keeps unobserved terms
  // (e.g. no trisolve measurement -> sync/latency columns all zero) at their
  // datasheet values instead of exploding.
  const std::array<double, kUnknowns> prior = coefficients_of(spec);
  for (int i = 0; i < kUnknowns; ++i) {
    const double p = std::max(prior[static_cast<std::size_t>(i)], 1e-15);
    const double ridge = 1e-4 / (p * p);
    g[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] += ridge;
    rhs[static_cast<std::size_t>(i)] +=
        ridge * prior[static_cast<std::size_t>(i)];
  }

  std::array<double, kUnknowns> x{};
  if (!solve_normal(g, rhs, &x)) return out;

  // Clamp to physical floors; negative fits are timing noise.
  const std::array<double, kUnknowns> floor = {1e-12, 1e-12, 1e-15, 1e-15,
                                               1e-12};
  for (int i = 0; i < kUnknowns; ++i) {
    if (x[static_cast<std::size_t>(i)] < floor[static_cast<std::size_t>(i)]) {
      x[static_cast<std::size_t>(i)] = floor[static_cast<std::size_t>(i)];
      ++out.clamped;
    }
  }

  out.spec.kernel_launch_us = x[0] * 1e6;
  out.spec.level_sync_us = x[1] * 1e6;
  out.spec.dram_gbps = 1.0 / (x[2] * 1e9);
  out.spec.peak_gflops = 1.0 / (x[3] * 1e9);
  out.spec.row_latency_us = x[4] * 1e6;

  double sq = 0.0, rel = 0.0;
  std::size_t used = 0;
  for (const Measurement& m : measurements) {
    if (m.seconds <= 0.0) continue;
    const double pred =
        surrogate_seconds(design_row(spec, m, value_bytes), x);
    sq += (pred - m.seconds) * (pred - m.seconds);
    rel += std::abs(pred - m.seconds) / m.seconds;
    ++used;
  }
  out.measurements = used;
  if (used > 0) {
    out.rms_residual_seconds = std::sqrt(sq / static_cast<double>(used));
    out.mean_abs_rel_error = rel / static_cast<double>(used);
  }
  return out;
}

double calibrated_prediction(const DeviceSpec& spec, const Measurement& m,
                             int value_bytes) {
  return surrogate_seconds(design_row(spec, m, value_bytes),
                           coefficients_of(spec));
}

std::vector<Measurement> host_measurements(const Csr<double>& a,
                                           int repeats) {
  repeats = std::max(1, repeats);
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<double> x(n, 1.0), y(n, 0.0);

  auto median_seconds = [&](auto&& kernel) {
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      kernel();
      times.push_back(timer.seconds());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };

  std::vector<Measurement> out;

  Measurement spmv_m;
  spmv_m.kind = Measurement::Kind::kSpmv;
  spmv_m.rows = a.rows;
  spmv_m.nnz = a.nnz();
  spmv_m.seconds = median_seconds([&] {
    spmv(a, std::span<const double>(x), std::span<double>(y));
  });
  out.push_back(spmv_m);

  const TriangularFactors<double> factors = ilu0_factors(a);
  Measurement tri_l;
  tri_l.kind = Measurement::Kind::kTrisolve;
  tri_l.rows = a.rows;
  tri_l.structure = trisolve_structure(factors.l, Triangle::kLower);
  tri_l.nnz = tri_l.structure.nnz;  // with L's implicit unit diagonal
  tri_l.seconds = median_seconds([&] {
    sptrsv_lower_serial(factors, std::span<const double>(x),
                        std::span<double>(y));
  });
  out.push_back(tri_l);

  Measurement tri_u;
  tri_u.kind = Measurement::Kind::kTrisolve;
  tri_u.rows = a.rows;
  tri_u.structure = trisolve_structure(factors.u, Triangle::kUpper);
  tri_u.nnz = tri_u.structure.nnz;
  tri_u.seconds = median_seconds([&] {
    sptrsv_upper_serial(factors, std::span<const double>(x),
                        std::span<double>(y));
  });
  out.push_back(tri_u);

  Measurement axpy_m;
  axpy_m.kind = Measurement::Kind::kBlas1;
  axpy_m.rows = a.rows;
  axpy_m.vectors_touched = 3;  // axpy reads x, reads+writes y
  axpy_m.flops_per_element = 2;
  axpy_m.seconds = median_seconds([&] {
    axpy(1.000001, std::span<const double>(x), std::span<double>(y));
  });
  out.push_back(axpy_m);

  Measurement dot_m;
  dot_m.kind = Measurement::Kind::kBlas1;
  dot_m.rows = a.rows;
  dot_m.vectors_touched = 2;  // dot reads x and y
  dot_m.flops_per_element = 2;
  volatile double sink = 0.0;
  dot_m.seconds = median_seconds([&] {
    sink = sink + dot(std::span<const double>(x), std::span<const double>(y));
  });
  out.push_back(dot_m);

  return out;
}

}  // namespace spcg
