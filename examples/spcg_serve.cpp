// spcg-serve: trace-replay front end for the runtime layer.
//
// Replays a synthetic stream of solve requests (round-robin over a few suite
// matrices, fresh right-hand side per request) through a SolveService and
// reports what the runtime layer buys: setup-cache hit rate, service-side
// latency percentiles, and the measured speedup against the same trace
// re-running the full per-request pipeline (the pre-runtime call pattern).
//
// Observability (DESIGN.md §9): --trace-out records every pipeline span
// (setup phases, cache lookups, queue wait vs execute, PCG) into a Chrome
// trace_event JSON file — open it in chrome://tracing or ui.perfetto.dev.
// --metrics-out writes a Prometheus-style text exposition of the service
// telemetry plus trace-derived per-phase totals. --trace-every additionally
// samples per-iteration solver spans (spmv / sptrsv sweeps / reductions).
//
// Usage:
//   spcg-serve [--requests N] [--matrices M] [--workers W] [--seed S]
//              [--fill K] [--deadline-ms D] [--parts P] [--comm-reduced]
//              [--transport KIND] [--inject-latency-us U]
//              [--no-compare] [--trace-out FILE] [--metrics-out FILE]
//              [--trace-every N] [--autotune] [--tune-db FILE]
//
//   --requests N     trace length (default 200)
//   --matrices M     distinct suite matrices, ids 0..M-1 (default 8, max 107)
//   --workers W      service worker threads (default 2)
//   --seed S         base RHS seed (default 1)
//   --fill K         use ILU(K) instead of ILU(0) (heavier setup)
//   --deadline-ms D  per-request relative deadline (default: none)
//   --parts P        solve each request distributed over P thread-ranks
//                    (default 1 = serial session)
//   --comm-reduced   use the communication-reduced body (one fused
//                    all-reduce per iteration); implies a distributed solve
//   --transport K    transport backing the rank collectives: inproc
//                    (default), shm, or socket
//   --inject-latency-us U
//                    add U microseconds of synthetic latency to every
//                    collective (models a slow interconnect)
//   --no-compare     skip the per-request baseline replay
//   --trace-out F    enable tracing; write Chrome trace JSON to F at exit
//   --metrics-out F  write Prometheus text exposition to F at exit
//   --trace-every N  sample per-iteration solver spans every N iterations
//                    (default 0 = off; requires --trace-out)
//   --autotune       let the service's tuner pick each matrix's config
//                    (first request per matrix tunes; the rest hit the DB)
//   --tune-db F      persistent tuning database: loaded before workers
//                    start, saved at exit. A missing file starts empty; a
//                    corrupt or version-mismatched file degrades to
//                    in-memory-only tuning with a warning (the bad file is
//                    left untouched). Serial requests only (--parts 1).
//
// Every --flag also accepts the --flag=value spelling. Output paths are
// validated (opened) before any worker starts, so an unwritable path is a
// usage error instead of a lost trace after the run; --tune-db is probed in
// append mode so the check never truncates an existing database. Numeric
// flags are validated: a non-numeric value, trailing garbage ("10x"), or an
// out-of-range value is a usage error with a message naming the flag.
//
// Exit codes: 0 = every request ok, 1 = some request failed/expired,
// 2 = usage error.
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "gen/suite.h"
#include "runtime/runtime.h"
#include "support/expo.h"
#include "support/telemetry.h"
#include "support/timer.h"
#include "support/trace.h"

namespace {

using namespace spcg;

struct CliOptions {
  int requests = 200;
  int matrices = 8;
  int workers = 2;
  std::uint64_t seed = 1;
  index_t fill = -1;  // <0: ILU(0)
  int deadline_ms = -1;
  int parts = 1;
  DistBody body = DistBody::kClassic;
  TransportOptions transport;
  bool compare = true;
  int trace_every = 0;
  std::string trace_out;
  std::string metrics_out;
  bool autotune = false;
  std::string tune_db;
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--requests N] [--matrices M] [--workers W] [--seed S]\n"
               "  [--fill K] [--deadline-ms D] [--parts P] [--comm-reduced]\n"
               "  [--transport inproc|shm|socket] [--inject-latency-us U]"
               " [--no-compare]\n"
               "  [--trace-out FILE] [--metrics-out FILE] [--trace-every N]\n"
               "  [--autotune] [--tune-db FILE]\n";
}

/// Parse `text` as a base-10 integer in [min, max]. Rejects non-numeric
/// input and trailing garbage ("10x"); reports the offending flag/value on
/// stderr so the usage error is actionable.
bool parse_int(const std::string& flag, const char* text, long min, long max,
               int* dst) {
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
  *dst = static_cast<int>(v);
  return true;
}

bool parse(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
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
    // Per-flag lower bounds make zero/negative counts usage errors with a
    // clear message instead of silent misbehavior downstream.
    auto next_int = [&](long min, long max, int* dst) {
      const char* text = next();
      return text != nullptr && parse_int(arg, text, min, max, dst);
    };
    auto next_string = [&](std::string* dst) {
      const char* text = next();
      if (text == nullptr) return false;
      if (*text == '\0') {
        std::cerr << "error: " << arg << " expects a non-empty path\n";
        return false;
      }
      *dst = text;
      return true;
    };
    if (arg == "--requests") {
      if (!next_int(1, 1'000'000, &out->requests)) return false;
    } else if (arg == "--matrices") {
      if (!next_int(1, suite_size(), &out->matrices)) return false;
    } else if (arg == "--workers") {
      if (!next_int(1, 1024, &out->workers)) return false;
    } else if (arg == "--seed") {
      int s = 0;
      if (!next_int(0, std::numeric_limits<int>::max(), &s)) return false;
      out->seed = static_cast<std::uint64_t>(s);
    } else if (arg == "--fill") {
      int k = 0;
      if (!next_int(0, 64, &k)) return false;
      out->fill = static_cast<index_t>(k);
    } else if (arg == "--deadline-ms") {
      if (!next_int(1, std::numeric_limits<int>::max(), &out->deadline_ms))
        return false;
    } else if (arg == "--parts") {
      if (!next_int(1, 256, &out->parts)) return false;
    } else if (arg == "--comm-reduced") {
      out->body = DistBody::kCommReduced;
    } else if (arg == "--transport") {
      const char* text = next();
      if (text == nullptr) return false;
      if (!parse_transport_kind(text, &out->transport.kind)) {
        std::cerr << "error: --transport expects inproc, shm, or socket; "
                     "got '"
                  << text << "'\n";
        return false;
      }
    } else if (arg == "--inject-latency-us") {
      int us = 0;
      if (!next_int(0, 10'000'000, &us)) return false;
      out->transport.inject_latency_us = static_cast<std::uint32_t>(us);
    } else if (arg == "--no-compare") {
      out->compare = false;
    } else if (arg == "--trace-out") {
      if (!next_string(&out->trace_out)) return false;
    } else if (arg == "--metrics-out") {
      if (!next_string(&out->metrics_out)) return false;
    } else if (arg == "--trace-every") {
      if (!next_int(1, std::numeric_limits<int>::max(), &out->trace_every))
        return false;
    } else if (arg == "--autotune") {
      out->autotune = true;
    } else if (arg == "--tune-db") {
      if (!next_string(&out->tune_db)) return false;
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return false;
    }
  }
  if (out->trace_every > 0 && out->trace_out.empty()) {
    std::cerr << "error: --trace-every requires --trace-out\n";
    return false;
  }
  if (out->autotune && out->parts > 1) {
    std::cerr << "error: --autotune supports serial requests only "
                 "(--parts 1)\n";
    return false;
  }
  if (out->parts == 1 &&
      (out->body != DistBody::kClassic ||
       out->transport.kind != TransportKind::kInProcess ||
       out->transport.inject_latency_us > 0)) {
    std::cerr << "error: --comm-reduced / --transport / --inject-latency-us "
                 "require a distributed solve (--parts > 1)\n";
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

  // Validate output paths before any matrix is generated or worker started:
  // an unwritable --trace-out must not cost a full replay.
  std::ofstream trace_file, metrics_file;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out, std::ios::out | std::ios::trunc);
    if (!trace_file.is_open()) {
      std::cerr << "error: --trace-out path '" << cli.trace_out
                << "' is not writable\n";
      return 2;
    }
  }
  if (!cli.metrics_out.empty()) {
    metrics_file.open(cli.metrics_out, std::ios::out | std::ios::trunc);
    if (!metrics_file.is_open()) {
      std::cerr << "error: --metrics-out path '" << cli.metrics_out
                << "' is not writable\n";
      return 2;
    }
  }
  if (!cli.trace_out.empty()) global_trace().set_enabled(true);

  // Tuning database: load before any worker starts, probe writability in
  // append mode (never truncating an existing DB), and degrade to
  // in-memory-only tuning — with the file left untouched — when the document
  // is corrupt or from another schema version.
  auto tune_db = std::make_shared<TuneDb>();
  bool persist_tune_db = false;
  if (!cli.tune_db.empty()) {
    switch (tune_db->load_file(cli.tune_db)) {
      case TuneDbLoad::kOk:
      case TuneDbLoad::kMissing:
        persist_tune_db = true;
        break;
      case TuneDbLoad::kVersionMismatch:
        std::cerr << "warning: --tune-db '" << cli.tune_db
                  << "' has an unsupported schema version; tuning "
                     "in-memory only, file left untouched\n";
        break;
      case TuneDbLoad::kCorrupt:
        std::cerr << "warning: --tune-db '" << cli.tune_db
                  << "' is corrupt; tuning in-memory only, file left "
                     "untouched\n";
        break;
    }
    if (persist_tune_db) {
      std::ofstream probe(cli.tune_db, std::ios::out | std::ios::app);
      if (!probe.is_open()) {
        std::cerr << "error: --tune-db path '" << cli.tune_db
                  << "' is not writable\n";
        return 2;
      }
    }
  }

  SpcgOptions opt;
  opt.pcg.tolerance = 1e-8;
  opt.pcg.trace_every = cli.trace_every;
  if (cli.fill >= 0) {
    opt.preconditioner = PrecondKind::kIluK;
    opt.fill_level = cli.fill;
  }

  // Materialize the working set and the request trace.
  std::vector<std::shared_ptr<const Csr<double>>> matrices;
  for (int m = 0; m < cli.matrices; ++m)
    matrices.push_back(std::make_shared<const Csr<double>>(
        generate_suite_matrix(static_cast<index_t>(m)).a));
  struct Trace {
    int matrix;
    std::vector<double> b;
  };
  std::vector<Trace> trace;
  trace.reserve(static_cast<std::size_t>(cli.requests));
  for (int i = 0; i < cli.requests; ++i) {
    const int m = i % cli.matrices;
    trace.push_back({m, make_rhs(*matrices[static_cast<std::size_t>(m)],
                                 cli.seed + static_cast<std::uint64_t>(i))});
  }
  std::cout << "spcg-serve: " << cli.requests << " requests over "
            << cli.matrices << " matrices, " << cli.workers << " worker(s)"
            << (cli.fill >= 0
                    ? ", ILU(" + std::to_string(cli.fill) + ")"
                    : ", ILU(0)");
  if (cli.parts > 1) {
    std::cout << ", " << cli.parts << " parts";
    std::cout << " (" << to_string(cli.body) << ")";
    std::cout << ", transport " << to_string(cli.transport.kind);
    if (cli.transport.inject_latency_us > 0)
      std::cout << " +" << cli.transport.inject_latency_us << "us";
  }
  std::cout << "\n\n";

  // Request-scoped latency sketch: the shutdown summary and the Prometheus
  // exposition both read this LogHistogram.
  TelemetryRegistry serve_telemetry;
  LogHistogram& latency_us = serve_telemetry.histogram("request.latency_us");

  // Replay through the service.
  WallTimer timer;
  SolveService<double>::Options service_opt;
  service_opt.workers = cli.workers;
  service_opt.cache_capacity = static_cast<std::size_t>(cli.matrices) * 2;
  service_opt.tune_db = tune_db;
  service_opt.tuner.base = opt;
  SolveService<double> service(service_opt);
  std::vector<SolveService<double>::Ticket> tickets;
  tickets.reserve(trace.size());
  for (Trace& t : trace) {
    ServiceRequest<double> req;
    req.a = matrices[static_cast<std::size_t>(t.matrix)];
    req.b = t.b;  // keep a copy for the comparison replay
    req.options = opt;
    if (cli.deadline_ms >= 0)
      req.deadline = std::chrono::milliseconds(cli.deadline_ms);
    req.parts = static_cast<index_t>(cli.parts);
    req.body = cli.body;
    req.transport = cli.transport;
    req.autotune = cli.autotune;
    tickets.push_back(service.submit(std::move(req)));
  }

  int ok = 0, fallbacks = 0, not_ok = 0, tune_db_hits = 0;
  for (auto& t : tickets) {
    const ServiceReply<double> reply = t.reply.get();
    if (reply.status == RequestStatus::kOk) {
      ++ok;
      if (reply.used_fallback) ++fallbacks;
      if (reply.tune_db_hit) ++tune_db_hits;
      latency_us.record(static_cast<std::uint64_t>(
          1e6 * (reply.queue_seconds + reply.solve_seconds)));
    } else {
      ++not_ok;
      std::cerr << "request failed: " << to_string(reply.status)
                << (reply.error.empty() ? "" : " (" + reply.error + ")")
                << "\n";
    }
  }
  const double service_seconds = timer.seconds();

  const ServiceStats stats = service.stats();
  std::cout << "telemetry\n";
  for (const CounterSample& s : service.telemetry_snapshot())
    std::cout << "  " << s.name << " = " << s.value << "\n";
  std::cout << "  setup_cache.hit_rate = " << stats.cache.hit_rate() << "\n\n";

  // Shutdown latency summary straight off the LogHistogram (percentiles are
  // inclusive upper bounds of the covering power-of-two bucket).
  if (latency_us.count() == 0) {
    std::cout << "latency: no request was answered\n";
  } else {
    std::cout << "latency (queue + solve, us, log-histogram upper bounds): "
              << "count " << latency_us.count() << ", p50 <= "
              << latency_us.percentile(50.0) << ", p99 <= "
              << latency_us.percentile(99.0) << ", max "
              << latency_us.max() << "\n";
  }
  std::cout << "wall clock: " << service_seconds << " s for " << ok
            << " ok / " << fallbacks << " fallback / " << not_ok
            << " not-ok\n";

  if (cli.autotune) {
    std::cout << "autotune: " << service.tune_db()->size()
              << " matrices in DB, " << tune_db_hits
              << " requests answered from the DB\n";
  }
  if (persist_tune_db) {
    if (tune_db->save_file(cli.tune_db)) {
      std::cout << "tune-db: " << tune_db->size() << " record(s) -> "
                << cli.tune_db << "\n";
    } else {
      std::cerr << "warning: could not write --tune-db '" << cli.tune_db
                << "'\n";
    }
  }

  // Export trace and metrics before the (optional) comparison replay so the
  // trace covers exactly the service run.
  std::vector<TraceEvent> events;
  if (!cli.trace_out.empty()) {
    events = global_trace().drain();
    write_chrome_trace(trace_file, events);
    trace_file.close();
    std::cout << "trace: " << events.size() << " spans -> " << cli.trace_out
              << "\n";
  }
  if (!cli.metrics_out.empty()) {
    std::vector<CounterSample> samples = service.telemetry_snapshot();
    for (const CounterSample& s : serve_telemetry.snapshot())
      samples.push_back(s);
    const std::vector<PhaseTotal> phases = aggregate_phases(events);
    metrics_file << prometheus_text(samples, phases);
    metrics_file.close();
    std::cout << "metrics: " << samples.size() << " samples, "
              << phases.size() << " phases -> " << cli.metrics_out << "\n";
  }

  if (cli.compare) {
    // The pre-runtime call pattern: full pipeline per request. Tracing is
    // switched off so the comparison measures the un-traced pipeline.
    global_trace().set_enabled(false);
    timer.reset();
    for (const Trace& t : trace)
      spcg_solve(*matrices[static_cast<std::size_t>(t.matrix)], t.b, opt);
    const double direct_seconds = timer.seconds();
    std::cout << "per-request spcg_solve replay: " << direct_seconds
              << " s -> speedup " << direct_seconds / service_seconds
              << "x\n";
  }
  return not_ok == 0 ? 0 : 1;
}
