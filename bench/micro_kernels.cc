// google-benchmark microbenchmarks for the real (host CPU) kernels: SpMV,
// triangular solves (serial and level-scheduled), ILU factorizations,
// the wavefront inspector, and Algorithm 2 itself. These measure the actual
// library code on the machine running the build, complementing the modeled
// device numbers used by the figure/table benches.
#include <benchmark/benchmark.h>

#include "core/sparsify.h"
#include "gen/generators.h"
#include "precond/ilu.h"
#include "solver/pcg.h"
#include "sptrsv/sptrsv.h"
#include "wavefront/levels.h"

namespace {

using namespace spcg;

const Csr<double>& grid_matrix() {
  static const Csr<double> a = gen_poisson2d(128, 128);
  return a;
}

const Csr<double>& circuit_matrix() {
  static const Csr<double> a = gen_grid_laplacian(96, 96, 2.0, 0.4, 9);
  return a;
}

TriangularFactors<double> grid_factors() {
  return ilu0_factors(grid_matrix());
}

void BM_Spmv(benchmark::State& state) {
  const Csr<double>& a = grid_matrix();
  std::vector<double> x(static_cast<std::size_t>(a.rows), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    spmv(a, std::span<const double>(x), std::span<double>(y));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv);

void BM_SptrsvSerial(benchmark::State& state) {
  const TriangularFactors<double> f = grid_factors();
  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    sptrsv_lower_serial(f, std::span<const double>(b), std::span<double>(x));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * f.l.nnz());
}
BENCHMARK(BM_SptrsvSerial);

void BM_SptrsvLevelScheduled(benchmark::State& state) {
  const TriangularFactors<double> f = grid_factors();
  const LevelSchedule sched = level_schedule(f.l, Triangle::kLower);
  std::vector<double> b(static_cast<std::size_t>(f.l.rows), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    sptrsv_lower_levels(f, sched, std::span<const double>(b),
                        std::span<double>(x));
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * f.l.nnz());
}
BENCHMARK(BM_SptrsvLevelScheduled);

void BM_Ilu0(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    TriangularFactors<double> f = ilu0_factors(a);
    benchmark::DoNotOptimize(f.u.values.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Ilu0);

/// cap > 0 times the capped linked-list merge (the paper runner's and the
/// thermal demo's path); cap = 0 the uncapped fill-path search that setups
/// run, on the host's thread team.
void BM_IlukSymbolic(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  const auto k = static_cast<index_t>(state.range(0));
  const auto cap = static_cast<index_t>(state.range(1));
  for (auto _ : state) {
    IlukSymbolic s = iluk_symbolic(a, k, cap);
    benchmark::DoNotOptimize(s.pattern.colind.data());
  }
}
BENCHMARK(BM_IlukSymbolic)
    ->ArgNames({"k", "cap"})
    ->Args({2, 512})
    ->Args({5, 512})
    ->Args({10, 512})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({3, 0});

void BM_LevelSchedule(benchmark::State& state) {
  const Csr<double>& a = grid_matrix();
  for (auto _ : state) {
    LevelSchedule s = level_schedule(a, Triangle::kLower);
    benchmark::DoNotOptimize(s.level_ptr.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_LevelSchedule);

void BM_SparsifyByRatio(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    SparsifySplit<double> s = sparsify_by_ratio(a, 10.0);
    benchmark::DoNotOptimize(s.a_hat.values.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SparsifyByRatio);

void BM_WavefrontAwareSparsify(benchmark::State& state) {
  const Csr<double>& a = circuit_matrix();
  for (auto _ : state) {
    SparsifyDecision<double> d = wavefront_aware_sparsify(a);
    benchmark::DoNotOptimize(d.chosen.a_hat.values.data());
  }
}
BENCHMARK(BM_WavefrontAwareSparsify);

void BM_PcgIteration(benchmark::State& state) {
  // Cost of PCG per iteration on the host: fixed 10 iterations per run.
  const Csr<double>& a = grid_matrix();
  const std::vector<double> b = make_rhs(a, 3);
  IluPreconditioner<double> m(grid_factors());
  PcgOptions opt;
  opt.tolerance = 0.0;
  opt.max_iterations = 10;
  for (auto _ : state) {
    SolveResult<double> r = pcg(a, b, m, opt);
    benchmark::DoNotOptimize(r.x.data());
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_PcgIteration);

}  // namespace

BENCHMARK_MAIN();
