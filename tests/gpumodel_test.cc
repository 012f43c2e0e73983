// Tests for the analytical device execution model.
#include <gtest/gtest.h>

#include <vector>

#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "gpumodel/device.h"
#include "precond/ilu.h"

namespace spcg {
namespace {

TEST(Device, SpecsAreSane) {
  for (const DeviceSpec& d :
       {device_a100(), device_v100(), device_epyc7413(), device_host_cpu()}) {
    EXPECT_GT(d.parallel_units, 0.0) << d.name;
    EXPECT_GT(d.peak_gflops, 0.0) << d.name;
    EXPECT_GT(d.dram_gbps, 0.0) << d.name;
    EXPECT_GE(d.kernel_launch_us, 0.0) << d.name;
  }
  // The architectural contrasts the portability analysis relies on.
  EXPECT_GT(device_a100().concurrent_rows(), device_v100().concurrent_rows());
  EXPECT_GT(device_a100().dram_gbps, device_v100().dram_gbps);
  EXPECT_LT(device_epyc7413().level_sync_us, device_v100().level_sync_us);
}

TEST(CostModel, SpmvScalesWithNnz) {
  const CostModel m(device_a100(), 4);
  const OpCost small = m.spmv(1000, 5000);
  const OpCost large = m.spmv(1000, 5'000'000);
  EXPECT_GT(large.seconds, small.seconds);
  EXPECT_DOUBLE_EQ(large.flops, 1e7);
  // Small kernels are launch-bound: time close to the launch latency.
  EXPECT_NEAR(small.seconds, device_a100().kernel_launch_us * 1e-6, 5e-6);
}

TEST(CostModel, Blas1IsBandwidthBound) {
  const CostModel m(device_a100(), 4);
  const OpCost c = m.blas1(10'000'000, 2, 2);
  const double expected_mem = 2.0 * 1e7 * 4 / (device_a100().dram_gbps * 1e9);
  EXPECT_NEAR(c.seconds - device_a100().kernel_launch_us * 1e-6, expected_mem,
              0.2 * expected_mem);
}

TEST(CostModel, TrisolvePaysPerLevelSync) {
  const CostModel m(device_a100(), 4);
  // Same total work split into 1 vs 100 levels.
  TriSolveStructure one;
  one.n = 10000;
  one.nnz = 50000;
  one.rows_per_level = {10000};
  one.nnz_per_level = {50000};
  TriSolveStructure many;
  many.n = 10000;
  many.nnz = 50000;
  many.rows_per_level.assign(100, 100);
  many.nnz_per_level.assign(100, 500);
  const OpCost c1 = m.trisolve(one);
  const OpCost c100 = m.trisolve(many);
  EXPECT_GT(c100.seconds, c1.seconds);
  // The gap is dominated by the 99 extra syncs.
  EXPECT_NEAR(c100.seconds - c1.seconds,
              99 * device_a100().level_sync_us * 1e-6,
              40 * device_a100().level_sync_us * 1e-6);
  EXPECT_DOUBLE_EQ(c1.flops, c100.flops);
}

TEST(CostModel, FewerWavefrontsNeverSlowerAtFixedWork) {
  // Property: merging adjacent levels (same rows/nnz totals) cannot slow the
  // modeled solve down.
  const CostModel m(device_v100(), 4);
  TriSolveStructure s;
  s.n = 4096;
  s.nnz = 20000;
  s.rows_per_level.assign(64, 64);
  s.nnz_per_level.assign(64, 312);
  double prev = m.trisolve(s).seconds;
  while (s.rows_per_level.size() > 1) {
    // Merge level pairs.
    TriSolveStructure t;
    t.n = s.n;
    t.nnz = s.nnz;
    for (std::size_t i = 0; i < s.rows_per_level.size(); i += 2) {
      index_t r = s.rows_per_level[i], z = s.nnz_per_level[i];
      if (i + 1 < s.rows_per_level.size()) {
        r += s.rows_per_level[i + 1];
        z += s.nnz_per_level[i + 1];
      }
      t.rows_per_level.push_back(r);
      t.nnz_per_level.push_back(z);
    }
    const double now = m.trisolve(t).seconds;
    EXPECT_LE(now, prev * (1.0 + 1e-9));
    prev = now;
    s = t;
  }
}

TEST(CostModel, TrisolveStructureMatchesMatrix) {
  const Csr<double> a = gen_poisson2d(12, 12);
  const TriSolveStructure s = trisolve_structure(a, Triangle::kLower);
  EXPECT_EQ(s.n, a.rows);
  index_t rows = 0, nnz = 0;
  for (std::size_t l = 0; l < s.rows_per_level.size(); ++l) {
    rows += s.rows_per_level[l];
    nnz += s.nnz_per_level[l];
  }
  EXPECT_EQ(rows, a.rows);
  EXPECT_EQ(nnz, s.nnz);
  // 5-point stencil lower triangle incl diag: 3 entries per interior row.
  EXPECT_LT(s.nnz, a.nnz());
  // L's unit diagonal is implicit but counted: ILU(0)'s L models like A's
  // lower triangle, which stores it.
  const TriSolveStructure sl =
      trisolve_structure(ilu0_factors(a).l, Triangle::kLower);
  EXPECT_EQ(sl.rows_per_level, s.rows_per_level);
  EXPECT_EQ(sl.nnz_per_level, s.nnz_per_level);
}

TEST(CostModel, PcgIterationComposesKernels) {
  const Csr<double> a = gen_poisson2d(24, 24);
  const PcgIterationShape shape = pcg_iteration_shape(a, ilu0_factors(a));
  const CostModel m(device_a100(), 4);
  const OpCost it = m.pcg_iteration(shape);
  const OpCost sp = m.spmv(shape.n, shape.a_nnz);
  const OpCost lo = m.trisolve(shape.lower);
  const OpCost up = m.trisolve(shape.upper);
  EXPECT_GT(it.seconds, sp.seconds + lo.seconds + up.seconds);
  EXPECT_GT(it.flops, sp.flops + lo.flops + up.flops);
}

TEST(CostModel, BaselineGflopsWithinPaperRange) {
  // Paper §4.2: ILU(0) PCG baseline spans 0.0004–156 GFLOP/s on A100. Check
  // a long-chain matrix (low end) and a wide flat matrix (high end) both
  // land inside a generous version of that window.
  const CostModel m(device_a100(), 4);

  const Csr<double> chain = gen_chain_with_skips(2000, 4, 1.0, 0.9, 1);
  const TriangularFactors<double> fc = ilu0_factors(chain);
  const double flops_c =
      pcg_iteration_flops(chain.rows, chain.nnz(), fc.l.nnz() + fc.u.nnz());
  const double t_c = m.pcg_iteration(pcg_iteration_shape(chain, fc)).seconds;
  const double gflops_chain = flops_c / t_c * 1e-9;

  const Csr<double> flat = gen_poisson2d(90, 90);
  const TriangularFactors<double> ff = ilu0_factors(flat);
  const double flops_f =
      pcg_iteration_flops(flat.rows, flat.nnz(), ff.l.nnz() + ff.u.nnz());
  const double t_f = m.pcg_iteration(pcg_iteration_shape(flat, ff)).seconds;
  const double gflops_flat = flops_f / t_f * 1e-9;

  EXPECT_GT(gflops_chain, 0.0001);
  EXPECT_LT(gflops_chain, 0.5);  // chain is sync-bound: far below peak
  EXPECT_GT(gflops_flat, gflops_chain * 10);
  EXPECT_LT(gflops_flat, 200.0);
}

TEST(CostModel, HostPhasesAreFiniteAndMonotone) {
  const CostModel host(device_host_cpu(), 4);
  const OpCost f1 = host.iluk_factorization_host(1'000'000, 100'000);
  const OpCost f2 = host.iluk_factorization_host(10'000'000, 100'000);
  EXPECT_GT(f2.seconds, f1.seconds);
  const OpCost s1 = host.sparsify_host(10'000, 3);
  const OpCost s2 = host.sparsify_host(1'000'000, 3);
  EXPECT_GT(s2.seconds, s1.seconds);
  EXPECT_GT(s1.seconds, 0.0);
}

TEST(CostModel, Ilu0FactorizationTracksWavefronts) {
  const CostModel m(device_a100(), 4);
  const Csr<double> grid = gen_poisson2d(40, 40);
  const Csr<double> chain = gen_chain_with_skips(1600, 4, 1.0, 0.9, 2);
  IluResult<double> fg, fc;
  ilu0_factors(grid, {}, &fg);
  ilu0_factors(chain, {}, &fc);
  const double tg =
      m.ilu0_factorization(trisolve_structure(grid, Triangle::kLower),
                           fg.elimination_ops)
          .seconds;
  const double tc =
      m.ilu0_factorization(trisolve_structure(chain, Triangle::kLower),
                           fc.elimination_ops)
          .seconds;
  // The chain has ~n levels vs ~2*nx for the grid: far more sync time.
  EXPECT_GT(tc, tg);
}

TEST(CostModel, SyncFreeBeatsBarrieredOnDeepSchedules) {
  const CostModel m(device_a100(), 4);
  TriSolveStructure deep;
  deep.n = 4000;
  deep.nnz = 12000;
  deep.rows_per_level.assign(2000, 2);
  deep.nnz_per_level.assign(2000, 6);
  const OpCost barriered = m.trisolve(deep);
  const OpCost syncfree = m.trisolve_syncfree(deep);
  EXPECT_LT(syncfree.seconds, barriered.seconds);
  EXPECT_DOUBLE_EQ(syncfree.flops, barriered.flops);
  // Wavefront reduction still helps the sync-free executor: halving the
  // level count (same work) shortens the dependence chain.
  TriSolveStructure half;
  half.n = deep.n;
  half.nnz = deep.nnz;
  half.rows_per_level.assign(1000, 4);
  half.nnz_per_level.assign(1000, 12);
  EXPECT_LT(m.trisolve_syncfree(half).seconds, syncfree.seconds);
}

TEST(CostModel, RejectsUnsupportedValueBytes) {
  EXPECT_THROW(CostModel(device_a100(), 2), Error);
}

}  // namespace
}  // namespace spcg
