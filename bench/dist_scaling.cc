// Strong-scaling bench for the distributed SPCG layer: one >= 100k-row 2D
// Poisson system solved at P in {1, 2, 4, 8} thread-ranks across both
// solver bodies (classic and communication-reduced),
// reporting iterations (vs the single-domain serial SPCG reference),
// communication volume (halo bytes, all-reduce count), overlap efficiency,
// and wall-clock speedup over P = 1.
//
// Transport knobs make the communication cost visible on one host:
// --transport selects the backing (inproc / shm / socket) and
// --inject-latency-us adds synthetic wire latency to every collective —
// under latency the comm-reduced body's single fused all-reduce per
// iteration is a measurable wall-clock win over classic's two.
//
// Correctness gates (binary exits nonzero if any breaks):
//   1. P = 1 classic must be bitwise identical to spcg_solve.
//   2. P = 1 comm-reduced must be bitwise identical to pipelined_pcg.
//   3. The comm-reduced body must issue at most one all-reduce per
//      iteration (exact budget: iterations + 2).
//   4. With --inject-latency-us >= 100 and P >= 4 in the panel, the
//      comm-reduced body must beat classic wall-clock at the largest P.
//
// Speedups are host-measured: ranks are std::threads, so on a machine with
// fewer hardware threads than P the ranks time-slice and speedup saturates
// at (or below) the core count. The iteration counts, communication volumes
// and the bitwise gates are machine-independent.
//
// Usage: dist_scaling [--nx N] [--smoke] [--parts LIST]
//                     [--transport inproc|shm|socket]
//                     [--inject-latency-us U] [--out FILE]
//   --nx N      grid edge; the system has N*N rows (default 330 -> 108,900)
//   --smoke     CI-sized run: nx = 120, P in {1, 2}
//   --parts L   comma-separated rank counts, e.g. 1,2,4 (default 1,2,4,8)
//   --transport K          transport backing (default inproc)
//   --inject-latency-us U  synthetic latency per collective (default 0)
//   --out FILE  also write the panel as JSON rows
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist.h"
#include "gen/generators.h"
#include "solver/pipelined_cg.h"
#include "support/table.h"
#include "support/timer.h"

using namespace spcg;

namespace {

bool parse_parts_list(const std::string& text, std::vector<index_t>* out) {
  out->clear();
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int v = std::atoi(item.c_str());
    if (v < 1 || v > 256) return false;
    out->push_back(static_cast<index_t>(v));
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  index_t nx = 330;
  std::vector<index_t> parts_list = {1, 2, 4, 8};
  TransportOptions topt;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nx" && i + 1 < argc) {
      nx = static_cast<index_t>(std::atoi(argv[++i]));
      if (nx < 4) {
        std::cerr << "error: --nx must be >= 4\n";
        return 2;
      }
    } else if (arg == "--smoke") {
      nx = 120;
      parts_list = {1, 2};
    } else if (arg == "--parts" && i + 1 < argc) {
      if (!parse_parts_list(argv[++i], &parts_list)) {
        std::cerr << "error: --parts expects a comma list like 1,2,4\n";
        return 2;
      }
    } else if (arg == "--transport" && i + 1 < argc) {
      if (!parse_transport_kind(argv[++i], &topt.kind)) {
        std::cerr << "error: --transport expects inproc, shm, or socket\n";
        return 2;
      }
    } else if (arg == "--inject-latency-us" && i + 1 < argc) {
      const int us = std::atoi(argv[++i]);
      if (us < 0) {
        std::cerr << "error: --inject-latency-us must be >= 0\n";
        return 2;
      }
      topt.inject_latency_us = static_cast<std::uint32_t>(us);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--nx N] [--smoke] [--parts LIST]"
                   " [--transport inproc|shm|socket]\n"
                   "  [--inject-latency-us U] [--out FILE]\n";
      return 2;
    }
  }

  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::out | std::ios::trunc);
    if (!out_file.is_open()) {
      std::cerr << "error: --out path '" << out_path << "' is not writable\n";
      return 2;
    }
  }

  const Csr<double> a = gen_poisson2d(nx, nx);
  const std::vector<double> b = make_rhs(a, 1);
  SpcgOptions opt;
  opt.pcg.tolerance = 1e-8;

  std::cout << "dist_scaling: poisson2d " << nx << "x" << nx << " ("
            << a.rows << " rows, " << a.nnz() << " nnz), "
            << std::thread::hardware_concurrency() << " hardware thread(s), "
            << "transport " << to_string(topt.kind);
  if (topt.inject_latency_us > 0)
    std::cout << " +" << topt.inject_latency_us << "us/collective";
  std::cout << "\n";

  // Single-domain serial references: spcg_solve is the yardstick and the
  // classic bitwise gate; pipelined_pcg is the comm-reduced bitwise gate
  // (the comm-reduced body is the pipelined recurrence with its reductions
  // fused into one).
  WallTimer timer;
  const SpcgResult<double> serial = spcg_solve(a, b, opt);
  const double serial_seconds = timer.seconds();
  SpcgSetup<double> serial_setup = spcg_setup(a, opt);
  const IluPreconditioner<double> serial_m(serial_setup.factors,
                                           serial_setup.l_schedule,
                                           serial_setup.u_schedule,
                                           opt.executor);
  const SolveResult<double> pipelined = pipelined_pcg(a, b, serial_m, opt.pcg);
  std::cout << "serial spcg_solve: " << serial.solve.iterations
            << " iterations, " << fmt(serial_seconds) << " s\n\n";

  constexpr DistBody kBodies[] = {DistBody::kClassic, DistBody::kCommReduced};

  TextTable table;
  table.set_header({"P", "body", "iters", "vs-serial", "solve s", "speedup",
                    "halo MB", "allreduces", "ar/iter", "overlap",
                    "edge-cut"});

  struct Row {
    index_t parts;
    DistBody body;
    std::int32_t iterations;
    std::uint64_t allreduces;
    std::uint64_t halo_bytes;
    double seconds;
  };
  std::vector<Row> rows;

  bool gates_ok = true;
  auto fail = [&](const std::string& what) {
    std::cerr << "FAIL: " << what << "\n";
    gates_ok = false;
  };

  double p1_seconds[2] = {0.0, 0.0};
  for (const index_t parts : parts_list) {
    if (parts > a.rows) continue;
    DistOptions dopt;
    dopt.parts = parts;
    dopt.options = opt;
    dopt.transport = topt;
    const DistSetup<double> setup = dist_setup(a, dopt);

    for (const DistBody body : kBodies) {
      dopt.body = body;
      const DistSolveResult<double> run = dist_pcg_solve(b, setup, dopt);
      const int bi = static_cast<int>(body);
      if (parts == 1) p1_seconds[bi] = run.solve_seconds;
      rows.push_back({parts, body, run.solve.iterations, run.stats.allreduces,
                      run.stats.halo_bytes, run.solve_seconds});

      if (parts == 1 && body == DistBody::kClassic &&
          (run.solve.iterations != serial.solve.iterations ||
           run.solve.x != serial.solve.x)) {
        fail("P=1 classic is not bitwise equal to spcg_solve");
      }
      if (parts == 1 && body == DistBody::kCommReduced &&
          (run.solve.iterations != pipelined.iterations ||
           run.solve.x != pipelined.x)) {
        fail("P=1 comm-reduced is not bitwise equal to pipelined_pcg");
      }
      if (body == DistBody::kCommReduced &&
          run.stats.allreduces >
              static_cast<std::uint64_t>(run.solve.iterations) + 2) {
        fail("comm-reduced issued more than one all-reduce per iteration");
      }

      table.add_row(
          {std::to_string(parts), to_string(body),
           std::to_string(run.solve.iterations),
           fmt_speedup(static_cast<double>(run.solve.iterations) /
                       static_cast<double>(serial.solve.iterations)),
           fmt(run.solve_seconds),
           fmt_speedup(p1_seconds[bi] / run.solve_seconds),
           fmt(static_cast<double>(run.stats.halo_bytes) / 1e6),
           std::to_string(run.stats.allreduces),
           fmt(static_cast<double>(run.stats.allreduces) /
               static_cast<double>(run.solve.iterations)),
           fmt_percent(run.stats.overlap_efficiency),
           std::to_string(setup.edge_cut)});
    }
  }

  // Latency-panel gate: once every collective pays real wire latency, the
  // comm-reduced body's single fused all-reduce per iteration must win
  // wall-clock against classic's two, at the largest multi-rank P.
  if (topt.inject_latency_us >= 100) {
    index_t p_max = 0;
    for (const Row& r : rows) p_max = std::max(p_max, r.parts);
    if (p_max >= 4) {
      double classic_s = 0.0, reduced_s = 0.0;
      for (const Row& r : rows) {
        if (r.parts != p_max) continue;
        if (r.body == DistBody::kClassic) classic_s = r.seconds;
        if (r.body == DistBody::kCommReduced) reduced_s = r.seconds;
      }
      if (reduced_s >= classic_s) {
        fail("comm-reduced did not beat classic wall-clock at P=" +
             std::to_string(p_max) + " under " +
             std::to_string(topt.inject_latency_us) + "us latency (" +
             fmt(reduced_s) + " s vs " + fmt(classic_s) + " s)");
      } else {
        std::cout << "latency gate: comm-reduced " << fmt(reduced_s)
                  << " s vs classic " << fmt(classic_s) << " s at P=" << p_max
                  << " -> ok\n";
      }
    }
  }

  std::cout << table.render() << "\n" << table.render_tsv();
  std::cout << "\ngates: " << (gates_ok ? "ok" : "FAILED") << "\n";

  if (out_file.is_open()) {
    out_file << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out_file << "  {\"parts\": " << r.parts << ", \"body\": \""
               << to_string(r.body) << "\", \"iterations\": " << r.iterations
               << ", \"allreduces\": " << r.allreduces
               << ", \"halo_bytes\": " << r.halo_bytes
               << ", \"seconds\": " << r.seconds << "}"
               << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out_file << "]\n";
    out_file.close();
    std::cout << rows.size() << " rows -> " << out_path << "\n";
  }
  return gates_ok ? 0 : 1;
}
