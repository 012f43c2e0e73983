// spcg-dist-worker: one rank of a true multi-process distributed solve.
//
// Launch P copies of this binary — one per rank — and they connect over a
// cross-process Transport (shared memory or TCP) and run the same rank body
// the in-process dist_pcg_solve drives on threads. Every process generates
// the identical Poisson problem from the same flags, so nothing but
// collective payloads (reduction partials, halo slices) crosses the wire.
//
// Socket rendezvous: rank 0 binds --port (a fixed port every rank agrees
// on); workers connect with retry until the collective timeout, so launch
// order does not matter. Shared memory rendezvous: every rank is given the
// same --shm-path; rank 0 creates the segment, workers attach with retry.
//
// Usage:
//   spcg-dist-worker --rank R --parts P --transport shm|socket
//     [--port N] [--host H] [--shm-path PATH] [--nx N] [--seed S]
//     [--body classic|comm-reduced] [--inject-latency-us U]
//     [--timeout-s T]
//
//   --rank R          this process's rank in [0, parts)
//   --parts P         total ranks (default 2)
//   --transport K     shm or socket (inproc cannot span processes)
//   --port N          TCP port rank 0 binds and workers dial (socket only,
//                     default 47117)
//   --host H          hub address workers dial (default 127.0.0.1)
//   --shm-path PATH   shared segment path, e.g. /dev/shm/spcg-ci (shm only)
//   --nx N            Poisson grid edge; the system is N*N rows (default 32)
//   --seed S          right-hand-side seed (default 1)
//   --body B          solver body (default comm-reduced)
//   --inject-latency-us U  synthetic per-collective latency
//   --timeout-s T     collective timeout in seconds (default 30)
//
// Every --flag also accepts --flag=value. Exit codes: 0 = this rank
// finished (and, on rank 0, the solve converged), 1 = solve did not
// converge / rank error, 2 = usage error, 3 = aborted by a peer.
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dist/dist.h"
#include "gen/generators.h"

namespace {

using namespace spcg;

struct CliOptions {
  index_t rank = -1;
  index_t parts = 2;
  int nx = 32;
  std::uint64_t seed = 1;
  DistBody body = DistBody::kCommReduced;
  TransportOptions transport;
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --rank R --parts P --transport shm|socket\n"
               "  [--port N] [--host H] [--shm-path PATH] [--nx N]"
               " [--seed S]\n"
               "  [--body classic|comm-reduced]"
               " [--inject-latency-us U] [--timeout-s T]\n";
}

bool parse_int(const std::string& flag, const char* text, long min, long max,
               long* dst) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    std::cerr << "error: " << flag << " expects an integer, got '" << text
              << "'\n";
    return false;
  }
  if (errno == ERANGE || v < min || v > max) {
    std::cerr << "error: " << flag << " must be in [" << min << ", " << max
              << "], got " << text << "\n";
    return false;
  }
  *dst = v;
  return true;
}

bool parse(int argc, char** argv, CliOptions* out) {
  out->transport.kind = TransportKind::kSocket;
  out->transport.socket_port = 47117;
  bool have_rank = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " expects a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto next_long = [&](long min, long max, long* dst) {
      const char* text = next();
      return text != nullptr && parse_int(arg, text, min, max, dst);
    };
    long v = 0;
    if (arg == "--rank") {
      if (!next_long(0, 4095, &v)) return false;
      out->rank = static_cast<index_t>(v);
      have_rank = true;
    } else if (arg == "--parts") {
      if (!next_long(1, 4096, &v)) return false;
      out->parts = static_cast<index_t>(v);
    } else if (arg == "--nx") {
      if (!next_long(2, 4096, &v)) return false;
      out->nx = static_cast<int>(v);
    } else if (arg == "--seed") {
      if (!next_long(0, std::numeric_limits<long>::max(), &v)) return false;
      out->seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--port") {
      if (!next_long(1, 65535, &v)) return false;
      out->transport.socket_port = static_cast<int>(v);
    } else if (arg == "--host") {
      const char* text = next();
      if (text == nullptr) return false;
      out->transport.socket_host = text;
    } else if (arg == "--shm-path") {
      const char* text = next();
      if (text == nullptr) return false;
      out->transport.shm_path = text;
    } else if (arg == "--transport") {
      const char* text = next();
      if (text == nullptr) return false;
      if (!parse_transport_kind(text, &out->transport.kind)) {
        std::cerr << "error: --transport expects shm or socket, got '"
                  << text << "'\n";
        return false;
      }
    } else if (arg == "--body") {
      const char* text = next();
      if (text == nullptr) return false;
      if (!parse_dist_body(text, &out->body)) {
        std::cerr << "error: --body expects classic or comm-reduced; got '"
                  << text << "'\n";
        return false;
      }
    } else if (arg == "--inject-latency-us") {
      if (!next_long(0, 10'000'000, &v)) return false;
      out->transport.inject_latency_us = static_cast<std::uint32_t>(v);
    } else if (arg == "--timeout-s") {
      if (!next_long(1, 86'400, &v)) return false;
      out->transport.collective_timeout_seconds = static_cast<double>(v);
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return false;
    }
  }
  if (!have_rank) {
    std::cerr << "error: --rank is required\n";
    return false;
  }
  if (out->rank >= out->parts) {
    std::cerr << "error: --rank must be < --parts\n";
    return false;
  }
  if (out->transport.kind == TransportKind::kInProcess) {
    std::cerr << "error: the in-process transport cannot span processes; "
                 "use --transport shm or socket\n";
    return false;
  }
  if (out->transport.kind == TransportKind::kSharedMemory &&
      out->transport.shm_path.empty()) {
    std::cerr << "error: --transport shm requires --shm-path\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse(argc, argv, &cli)) {
    usage(argv[0]);
    return 2;
  }

  // Deterministic problem: every rank builds the identical system and
  // distributed setup from the shared flags.
  const Csr<double> a = gen_poisson2d(static_cast<index_t>(cli.nx),
                                      static_cast<index_t>(cli.nx));
  const std::vector<double> b = make_rhs(a, cli.seed);

  DistOptions dopt;
  dopt.parts = cli.parts;
  dopt.body = cli.body;
  dopt.transport = cli.transport;
  dopt.options.pcg.tolerance = 1e-8;
  const DistSetup<double> setup = dist_setup(a, dopt);
  const std::vector<std::size_t> window_bytes = dist_window_bytes(setup);

  std::cout << "rank " << cli.rank << "/" << cli.parts << ": "
            << to_string(cli.transport.kind) << " transport, "
            << to_string(dopt.body) << " body, " << a.rows
            << " rows\n";

  try {
    const std::unique_ptr<Transport> transport = make_process_transport(
        cli.rank, cli.parts, std::span<const std::size_t>(window_bytes),
        dopt.transport);
    Communicator<double> comm(transport.get());

    std::vector<double> x(b.size(), 0.0);
    SolveResult<double> res;
    WallTimer timer;
    dist_pcg_rank(comm, setup, std::span<const double>(b), dopt,
                  std::span<double>(x), res);
    const double seconds = timer.seconds();

    const CommStats cs = comm.stats();
    std::cout << "rank " << cli.rank << ": " << cs.allreduces
              << " allreduces, " << cs.halo_exchanges << " halo exchanges, "
              << cs.halo_bytes << " halo bytes, wait " << cs.wait_seconds
              << " s, " << seconds << " s total\n";
    if (cli.rank == 0) {
      std::cout << "rank 0: " << (res.converged() ? "converged" : "FAILED")
                << " in " << res.iterations << " iterations, |r| = "
                << res.final_residual_norm << "\n";
      if (!res.converged()) return 1;
    }
  } catch (const CommAborted& e) {
    std::cerr << "rank " << cli.rank << ": aborted: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "rank " << cli.rank << ": error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
