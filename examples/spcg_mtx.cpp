// Command-line SPCG solver for Matrix Market files.
//
// Usage:
//   spcg_mtx <matrix.mtx> [--iluk K] [--tau T] [--omega W] [--tol EPS]
//            [--max-iters N] [--no-sparsify] [--rhs ones|random]
//
// Reads a symmetric positive definite matrix, runs baseline PCG and SPCG
// side by side, and reports convergence, wavefronts, and modeled A100 times.
#include <cstring>
#include <iostream>
#include <string>

#include "core/spcg.h"
#include "core/spcg_report.h"
#include "gen/generators.h"
#include "gpumodel/cost_model.h"
#include "sparse/io.h"
#include "sparse/norms.h"

namespace {

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <matrix.mtx> [--iluk K] [--tau T] [--omega W] [--tol EPS]"
               " [--max-iters N] [--no-sparsify] [--rhs ones|random]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spcg;
  if (argc < 2) {
    usage(argv[0]);
    return 2;
  }

  SpcgOptions opt;
  opt.pcg.tolerance = 1e-10;
  std::string rhs_mode = "random";
  bool sparsify = true;
  const std::string path = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iluk") {
      opt.preconditioner = PrecondKind::kIluK;
      opt.fill_level = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--tau") {
      opt.sparsify.tau = std::atof(next());
    } else if (arg == "--omega") {
      opt.sparsify.omega_percent = std::atof(next());
    } else if (arg == "--tol") {
      opt.pcg.tolerance = std::atof(next());
    } else if (arg == "--max-iters") {
      opt.pcg.max_iterations = std::atoi(next());
    } else if (arg == "--no-sparsify") {
      sparsify = false;
    } else if (arg == "--rhs") {
      rhs_mode = next();
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  try {
    const Csr<double> a = read_matrix_market(path);
    if (a.rows != a.cols) {
      std::cerr << "error: matrix is not square\n";
      return 1;
    }
    if (!is_symmetric(a, 1e-10 * static_cast<double>(norm_inf(a)))) {
      std::cerr << "warning: matrix is not numerically symmetric; "
                   "CG assumes SPD input\n";
    }
    std::vector<double> b;
    if (rhs_mode == "ones") {
      b.assign(static_cast<std::size_t>(a.rows), 1.0);
      const double nb = norm2(std::span<const double>(b));
      for (double& v : b) v /= nb;
    } else {
      b = make_rhs(a, 1);
    }

    SpcgOptions base = opt;
    base.sparsify_enabled = false;
    const SpcgResult<double> rb = spcg_solve(a, std::span<const double>(b), base);
    std::cout << render_run_summary(
        summarize("baseline PCG", a, rb, opt.preconditioner));

    if (sparsify) {
      opt.sparsify_enabled = true;
      const SpcgResult<double> rs =
          spcg_solve(a, std::span<const double>(b), opt);
      std::cout << render_run_summary(
          summarize("SPCG", a, rs, opt.preconditioner));

      const CostModel model(device_a100(), 4);
      const double tb =
          model.pcg_iteration(pcg_iteration_shape(a, rb.factors)).seconds;
      const double ts =
          model.pcg_iteration(pcg_iteration_shape(a, rs.factors)).seconds;
      std::cout << "modeled A100 per-iteration speedup: " << tb / ts << "x\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
