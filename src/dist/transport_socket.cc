// TCP socket Transport backing: true cross-process ranks over a star
// topology through the rank-0 hub.
//
// Wire format: length-prefixed frames, one 24-byte header (FrameHeader,
// padding included) then the payload —
//   { u32 type; u32 rank; u64 seq; u32 len; }  (host byte order: the
// transport targets same-architecture hosts; doubles cross the wire as raw
// IEEE-754 bits, which is what keeps the reduction bitwise deterministic).
// Frame types: Hello (worker -> hub rank introduction), ReducePart /
// ReduceResult, WindowPart / WindowAll, BarrierArrive / BarrierRelease, and
// Abort (valid at any point in the stream).
//
// Collectives: workers send their contribution to the hub and wait for its
// reply; the hub collects one frame per worker, folds reduce partials in
// ascending rank order (accumulating in double, exactly like the in-process
// fold), and broadcasts the folded bits / assembled windows. Folding once
// and broadcasting the result preserves the determinism contract verbatim.
//
// Failure containment: every recv polls with the collective timeout; a
// timeout, EOF (peer process died), an Abort frame or a length beyond the
// frame type's bound (a reduce width, a declared window, 0 for barriers)
// surfaces CommAborted before any payload is read.
// The hub additionally relays Abort to every other worker, so one dead rank
// converges the whole group within one timeout.
#include "dist/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "support/timer.h"

namespace spcg {
namespace detail {
namespace {

enum class FrameType : std::uint32_t {
  kHello = 1,
  kReducePart = 2,
  kReduceResult = 3,
  kWindowPart = 4,
  kWindowAll = 5,
  kBarrierArrive = 6,
  kBarrierRelease = 7,
  kAbort = 8,
};

struct FrameHeader {
  std::uint32_t type = 0;
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
};

/// Per-rank window offsets within the assembled (bank-less) window buffer.
struct WindowLayout {
  std::vector<std::size_t> offset;
  std::vector<std::size_t> bytes;
  std::size_t total = 0;

  WindowLayout(index_t parts, std::span<const std::size_t> window_bytes) {
    offset.resize(static_cast<std::size_t>(parts));
    bytes.resize(static_cast<std::size_t>(parts));
    for (index_t r = 0; r < parts; ++r) {
      offset[static_cast<std::size_t>(r)] = total;
      const std::size_t b =
          window_bytes.empty() ? 0
                               : window_bytes[static_cast<std::size_t>(r)];
      bytes[static_cast<std::size_t>(r)] = b;
      total += b;
    }
  }
};

class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  SPCG_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 "socket transport host must be an IPv4 address, got "
                     << host);
  return addr;
}

/// Both endpoint roles share the framing/IO core: send_all, deadline-polled
/// recv, and the abort bookkeeping.
class SocketTransportBase : public Transport {
 public:
  SocketTransportBase(index_t rank, index_t parts, WindowLayout layout,
                      double timeout)
      : rank_(rank), parts_(parts), layout_(std::move(layout)),
        timeout_(timeout) {}

  [[nodiscard]] index_t rank() const override { return rank_; }
  [[nodiscard]] index_t size() const override { return parts_; }
  [[nodiscard]] bool aborted() const override { return aborted_; }

 protected:
  void mark_aborted() noexcept { aborted_ = true; }

  [[noreturn]] void fail(const char* why) {
    mark_aborted();
    on_abort_observed();
    throw CommAborted(why);
  }

  /// Hook: the hub relays Abort to the surviving workers.
  virtual void on_abort_observed() noexcept {}

  void send_frame(int fd, FrameType type, std::uint64_t seq,
                  const void* payload, std::size_t len) {
    FrameHeader h;
    h.type = static_cast<std::uint32_t>(type);
    h.rank = static_cast<std::uint32_t>(rank_);
    h.seq = seq;
    h.len = static_cast<std::uint32_t>(len);
    send_all(fd, &h, sizeof(h));
    if (len > 0) send_all(fd, payload, len);
  }

  /// Best-effort Abort frame (for abort() — must not throw).
  void send_abort(int fd) noexcept {
    if (fd < 0) return;
    FrameHeader h;
    h.type = static_cast<std::uint32_t>(FrameType::kAbort);
    h.rank = static_cast<std::uint32_t>(rank_);
    h.seq = 0;
    h.len = 0;
    (void)::send(fd, &h, sizeof(h), MSG_NOSIGNAL | MSG_DONTWAIT);
  }

  /// Receive one frame, enforcing the expected type and sequence, into a
  /// caller-provided region. The peer-supplied length is checked against
  /// the frame type's bound `max_len` before any payload byte is read: an
  /// Abort frame, EOF, socket error, deadline overrun or oversized frame
  /// becomes CommAborted.
  FrameHeader recv_frame(int fd, FrameType expected, std::uint64_t seq,
                         void* dst, std::size_t max_len) {
    WallTimer timer;
    FrameHeader h;
    recv_all(fd, &h, sizeof(h), timer);
    if (h.type == static_cast<std::uint32_t>(FrameType::kAbort))
      fail("communicator aborted by another rank");
    if (h.type != static_cast<std::uint32_t>(expected) || h.seq != seq ||
        h.len > max_len)
      fail("socket transport protocol error (unexpected frame)");
    if (h.len > 0) recv_all(fd, dst, h.len, timer);
    return h;
  }

  void send_all(int fd, const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
      if (n <= 0) fail("socket transport peer unreachable (send)");
      p += n;
      len -= static_cast<std::size_t>(n);
    }
  }

  void recv_all(int fd, void* data, std::size_t len, WallTimer& timer) {
    auto* p = static_cast<std::uint8_t*>(data);
    while (len > 0) {
      if (aborted_) fail("communicator aborted by another rank");
      if (timer.seconds() > timeout_)
        fail("collective timed out waiting for peers");
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 50);  // re-check abort every 50 ms
      if (ready < 0) fail("socket transport poll failed");
      if (ready == 0) continue;
      const ssize_t n = ::recv(fd, p, len, 0);
      if (n <= 0) fail("socket transport peer died (recv)");
      p += n;
      len -= static_cast<std::size_t>(n);
    }
    stats_.wait_seconds += timer.seconds();
    timer.reset();
  }

  index_t rank_;
  index_t parts_;
  WindowLayout layout_;
  double timeout_;
  std::uint64_t seq_ = 0;  // one shared collective sequence (SPMD)
  bool aborted_ = false;
};

/// Rank 0: listens, accepts the P-1 workers lazily at the first collective,
/// and acts as the fold-and-broadcast hub.
class SocketHubTransport final : public SocketTransportBase {
 public:
  SocketHubTransport(index_t parts, WindowLayout layout,
                     const TransportOptions& opt, int* bound_port)
      : SocketTransportBase(0, parts, std::move(layout),
                            opt.collective_timeout_seconds),
        fds_(static_cast<std::size_t>(parts)) {
    assembly_.resize(layout_.total);
    listen_fd_ = Socket(::socket(AF_INET, SOCK_STREAM, 0));
    SPCG_CHECK_MSG(listen_fd_.valid(), "cannot create hub socket");
    int one = 1;
    ::setsockopt(listen_fd_.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr = make_addr(opt.socket_host, opt.socket_port);
    SPCG_CHECK_MSG(::bind(listen_fd_.fd(),
                          reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) == 0,
                   "cannot bind hub socket on " << opt.socket_host << ":"
                                                << opt.socket_port);
    SPCG_CHECK_MSG(::listen(listen_fd_.fd(), parts) == 0,
                   "cannot listen on hub socket");
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    SPCG_CHECK(::getsockname(listen_fd_.fd(),
                             reinterpret_cast<sockaddr*>(&bound),
                             &blen) == 0);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    if (bound_port != nullptr) *bound_port = port_;
  }

  [[nodiscard]] int port() const { return port_; }

  void barrier() override {
    ensure_connected();
    ++seq_;
    for (index_t r = 1; r < parts_; ++r)
      recv_frame(worker_fd(r), FrameType::kBarrierArrive, seq_, nullptr, 0);
    for (index_t r = 1; r < parts_; ++r)
      send_frame(worker_fd(r), FrameType::kBarrierRelease, seq_, nullptr, 0);
  }

  void reduce_begin(std::span<const double> vals) override {
    SPCG_CHECK(vals.size() >= 1 && vals.size() <= kReduceWidth);
    ensure_connected();
    ++seq_;
    width_ = vals.size();
    for (std::size_t j = 0; j < width_; ++j) own_[j] = vals[j];
  }

  void reduce_end(std::span<double> out) override {
    SPCG_CHECK(out.size() == width_);
    // The deterministic fold: ascending rank order, accumulated in double.
    std::array<double, kReduceWidth> acc = own_;
    std::array<double, kReduceWidth> part{};
    for (index_t r = 1; r < parts_; ++r) {
      const FrameHeader h = recv_frame(worker_fd(r), FrameType::kReducePart,
                                       seq_, part.data(), sizeof(part));
      if (h.len != width_ * sizeof(double))
        fail("socket transport reduce width mismatch");
      for (std::size_t j = 0; j < width_; ++j) acc[j] += part[j];
    }
    std::copy_n(acc.begin(), width_, out.begin());
    for (index_t r = 1; r < parts_; ++r)
      send_frame(worker_fd(r), FrameType::kReduceResult, seq_, out.data(),
                 width_ * sizeof(double));
  }

  void window_begin(const void* data, std::size_t bytes) override {
    SPCG_CHECK_MSG(bytes <= layout_.bytes[0],
                   "window publication exceeds the declared window_bytes");
    ensure_connected();
    ++seq_;
    if (bytes > 0) std::memcpy(assembly_.data() + layout_.offset[0], data, bytes);
  }

  void window_end() override {
    for (index_t r = 1; r < parts_; ++r) {
      recv_frame(worker_fd(r), FrameType::kWindowPart, seq_,
                 assembly_.data() + layout_.offset[static_cast<std::size_t>(r)],
                 layout_.bytes[static_cast<std::size_t>(r)]);
    }
    for (index_t r = 1; r < parts_; ++r)
      send_frame(worker_fd(r), FrameType::kWindowAll, seq_, assembly_.data(),
                 assembly_.size());
  }

  [[nodiscard]] const void* window(index_t r) const override {
    return assembly_.data() + layout_.offset[static_cast<std::size_t>(r)];
  }

  void abort() noexcept override {
    mark_aborted();
    for (index_t r = 1; r < parts_; ++r)
      send_abort(fds_[static_cast<std::size_t>(r)].fd());
  }

 private:
  void on_abort_observed() noexcept override {
    // Relay so the surviving workers unblock within their own timeout.
    for (index_t r = 1; r < parts_; ++r)
      send_abort(fds_[static_cast<std::size_t>(r)].fd());
  }

  [[nodiscard]] int worker_fd(index_t r) const {
    return fds_[static_cast<std::size_t>(r)].fd();
  }

  /// Accept the P-1 workers and read their Hello frames (first collective).
  void ensure_connected() {
    if (connected_) return;
    WallTimer timer;
    index_t pending = parts_ - 1;
    while (pending > 0) {
      if (timer.seconds() > timeout_)
        fail("timed out waiting for socket workers to connect");
      pollfd pfd{listen_fd_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      Socket conn(::accept(listen_fd_.fd(), nullptr, nullptr));
      if (!conn.valid()) continue;
      set_nodelay(conn.fd());
      WallTimer hello_timer;
      FrameHeader h;
      recv_all(conn.fd(), &h, sizeof(h), hello_timer);
      if (h.type != static_cast<std::uint32_t>(FrameType::kHello) ||
          h.len != 0 || h.rank == 0 ||
          h.rank >= static_cast<std::uint32_t>(parts_))
        fail("socket transport bad hello");
      auto& slot = fds_[static_cast<std::size_t>(h.rank)];
      if (slot.valid()) fail("socket transport duplicate rank hello");
      slot = std::move(conn);
      --pending;
    }
    connected_ = true;
  }

  Socket listen_fd_;
  std::vector<Socket> fds_;  // index = worker rank (0 unused)
  bool connected_ = false;
  int port_ = 0;
  std::array<double, kReduceWidth> own_{};
  std::size_t width_ = 0;
  std::vector<std::uint8_t> assembly_;
};

/// Ranks 1..P-1: connect to the hub (with retry until the timeout) and run
/// every collective as send-contribution / await-reply.
class SocketWorkerTransport final : public SocketTransportBase {
 public:
  SocketWorkerTransport(index_t rank, index_t parts, WindowLayout layout,
                        const TransportOptions& opt)
      : SocketTransportBase(rank, parts, std::move(layout),
                            opt.collective_timeout_seconds) {
    rx_.resize(layout_.total);
    const sockaddr_in addr = make_addr(opt.socket_host, opt.socket_port);
    WallTimer timer;
    for (;;) {
      fd_ = Socket(::socket(AF_INET, SOCK_STREAM, 0));
      SPCG_CHECK_MSG(fd_.valid(), "cannot create worker socket");
      if (::connect(fd_.fd(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        break;
      fd_.close();
      if (timer.seconds() > opt.collective_timeout_seconds)
        throw CommAborted("timed out connecting to the socket hub");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    set_nodelay(fd_.fd());
    send_frame(fd_.fd(), FrameType::kHello, 0, nullptr, 0);
  }

  void barrier() override {
    ++seq_;
    send_frame(fd_.fd(), FrameType::kBarrierArrive, seq_, nullptr, 0);
    recv_frame(fd_.fd(), FrameType::kBarrierRelease, seq_, nullptr, 0);
  }

  void reduce_begin(std::span<const double> vals) override {
    SPCG_CHECK(vals.size() >= 1 && vals.size() <= kReduceWidth);
    ++seq_;
    width_ = vals.size();
    send_frame(fd_.fd(), FrameType::kReducePart, seq_, vals.data(),
               vals.size() * sizeof(double));
  }

  void reduce_end(std::span<double> out) override {
    SPCG_CHECK(out.size() == width_);
    const FrameHeader h = recv_frame(fd_.fd(), FrameType::kReduceResult,
                                     seq_, out.data(), out.size_bytes());
    if (h.len != out.size_bytes())
      fail("socket transport reduce width mismatch");
  }

  void window_begin(const void* data, std::size_t bytes) override {
    SPCG_CHECK_MSG(
        bytes <= layout_.bytes[static_cast<std::size_t>(rank_)],
        "window publication exceeds the declared window_bytes");
    ++seq_;
    send_frame(fd_.fd(), FrameType::kWindowPart, seq_, data, bytes);
  }

  void window_end() override {
    recv_frame(fd_.fd(), FrameType::kWindowAll, seq_, rx_.data(),
               rx_.size());
  }

  [[nodiscard]] const void* window(index_t r) const override {
    return rx_.data() + layout_.offset[static_cast<std::size_t>(r)];
  }

  void abort() noexcept override {
    mark_aborted();
    send_abort(fd_.fd());
  }

 private:
  Socket fd_;
  std::size_t width_ = 0;
  std::vector<std::uint8_t> rx_;
};

}  // namespace

std::vector<std::unique_ptr<Transport>> make_socket_endpoints(
    index_t parts, std::span<const std::size_t> window_bytes,
    const TransportOptions& opt) {
  SPCG_CHECK(window_bytes.empty() ||
             static_cast<index_t>(window_bytes.size()) == parts);
  const WindowLayout layout(parts, window_bytes);
  int port = 0;
  std::vector<std::unique_ptr<Transport>> eps;
  eps.reserve(static_cast<std::size_t>(parts));
  eps.push_back(std::make_unique<SocketHubTransport>(parts, layout, opt,
                                                     &port));
  TransportOptions wopt = opt;
  wopt.socket_port = port;
  // connect() completes against the hub's listen backlog, so the workers
  // need no concurrent accept loop; the hub accepts at its first collective.
  for (index_t r = 1; r < parts; ++r)
    eps.push_back(
        std::make_unique<SocketWorkerTransport>(r, parts, layout, wopt));
  return eps;
}

std::unique_ptr<Transport> make_socket_endpoint(
    index_t rank, index_t parts, std::span<const std::size_t> window_bytes,
    const TransportOptions& opt, int* bound_port) {
  SPCG_CHECK(window_bytes.empty() ||
             static_cast<index_t>(window_bytes.size()) == parts);
  const WindowLayout layout(parts, window_bytes);
  if (rank == 0)
    return std::make_unique<SocketHubTransport>(parts, layout, opt,
                                                bound_port);
  SPCG_CHECK_MSG(opt.socket_port > 0,
                 "socket workers need an explicit --port to find the hub");
  return std::make_unique<SocketWorkerTransport>(rank, parts, layout, opt);
}

}  // namespace detail
}  // namespace spcg
