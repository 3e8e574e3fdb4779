#include "src/serve/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <csignal>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/serve/socket_internal.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

using sock_internal::ErrnoStatus;
using sock_internal::SocketAddress;

// Stop reading a client once this many unflushed response bytes are buffered
// for it; resume once the backlog drains below the low watermark. Bounds
// daemon memory per slow client without head-of-line blocking anyone else.
constexpr size_t kWriteHighWatermark = 4u << 20;
constexpr size_t kWriteLowWatermark = 64u << 10;
// Compact the flushed prefix of a write buffer once it exceeds this.
constexpr size_t kWriteCompactThreshold = 64u << 10;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void SetBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
}

struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

// Readiness-notification backend. Level-triggered semantics on both
// implementations: an fd with unread input (or writable space while write
// interest is registered) keeps firing until serviced.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual Status Add(int fd, bool read, bool write) = 0;
  virtual Status Update(int fd, bool read, bool write) = 0;
  virtual void Remove(int fd) = 0;
  // Blocks until at least one fd is ready; fills `out` (empty on EINTR).
  virtual Status Wait(std::vector<PollerEvent>* out) = 0;
};

// Portable fallback: rebuilds the pollfd array from the interest map on
// every wait. O(n) per wait, which is fine at the daemon's client counts.
class PollPoller : public Poller {
 public:
  Status Add(int fd, bool read, bool write) override {
    interest_[fd] = Events(read, write);
    return Status::Ok();
  }
  Status Update(int fd, bool read, bool write) override {
    interest_[fd] = Events(read, write);
    return Status::Ok();
  }
  void Remove(int fd) override { interest_.erase(fd); }
  Status Wait(std::vector<PollerEvent>* out) override {
    out->clear();
    fds_.clear();
    for (const auto& [fd, events] : interest_) {
      fds_.push_back(pollfd{fd, events, 0});
    }
    if (::poll(fds_.data(), fds_.size(), -1) < 0) {
      if (errno == EINTR) {
        return Status::Ok();
      }
      return ErrnoStatus("poll failed", "event loop");
    }
    for (const pollfd& entry : fds_) {
      if (entry.revents == 0) {
        continue;
      }
      out->push_back(PollerEvent{
          entry.fd,
          (entry.revents & (POLLIN | POLLHUP | POLLERR)) != 0,
          (entry.revents & POLLOUT) != 0,
          (entry.revents & (POLLERR | POLLNVAL)) != 0});
    }
    return Status::Ok();
  }

 private:
  static short Events(bool read, bool write) {
    return static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  }
  std::map<int, short> interest_;
  std::vector<pollfd> fds_;
};

#if defined(__linux__)
class EpollPoller : public Poller {
 public:
  static std::unique_ptr<EpollPoller> Create() {
    const int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) {
      return nullptr;
    }
    return std::unique_ptr<EpollPoller>(new EpollPoller(fd));
  }
  ~EpollPoller() override { ::close(epfd_); }

  Status Add(int fd, bool read, bool write) override {
    return Ctl(EPOLL_CTL_ADD, fd, read, write);
  }
  Status Update(int fd, bool read, bool write) override {
    return Ctl(EPOLL_CTL_MOD, fd, read, write);
  }
  void Remove(int fd) override {
    epoll_event unused{};
    (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &unused);
  }
  Status Wait(std::vector<PollerEvent>* out) override {
    out->clear();
    epoll_event events[64];
    const int n = ::epoll_wait(epfd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) {
        return Status::Ok();
      }
      return ErrnoStatus("epoll_wait failed", "event loop");
    }
    for (int i = 0; i < n; ++i) {
      out->push_back(PollerEvent{
          events[i].data.fd,
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0,
          (events[i].events & EPOLLOUT) != 0,
          (events[i].events & EPOLLERR) != 0});
    }
    return Status::Ok();
  }

 private:
  explicit EpollPoller(int fd) : epfd_(fd) {}
  Status Ctl(int op, int fd, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
                   (write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    event.data.fd = fd;
    if (::epoll_ctl(epfd_, op, fd, &event) != 0) {
      return ErrnoStatus("epoll_ctl failed", StrFormat("fd %d", fd));
    }
    return Status::Ok();
  }
  int epfd_;
};
#endif  // defined(__linux__)

std::unique_ptr<Poller> MakePoller() {
#if defined(__linux__)
  std::unique_ptr<Poller> epoll = EpollPoller::Create();
  if (epoll != nullptr) {
    return epoll;
  }
#endif
  return std::make_unique<PollPoller>();
}

// Per-connection (or stdin) line assembly: consumes complete lines from the
// buffer, feeding each to the service; returns the concatenated responses.
// This is where pipelining happens — a client that wrote N request lines
// before reading gets N response blocks queued back to back.
std::string DrainLines(RequestHandler& service, std::string& buffer) {
  std::string responses;
  size_t start = 0;
  while (true) {
    const size_t newline = buffer.find('\n', start);
    if (newline == std::string::npos) {
      break;
    }
    std::string line = buffer.substr(start, newline - start);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    start = newline + 1;
    if (line.empty()) {
      continue;  // blank lines are keep-alive no-ops
    }
    responses += service.HandleLine(line);
    if (service.shutdown_requested()) {
      break;
    }
  }
  buffer.erase(0, start);
  return responses;
}

// One socket client: partial-request input buffer, unflushed response bytes,
// and the backpressure state machine described in socket.h.
struct Connection {
  std::string in;
  std::string out;
  size_t out_offset = 0;  // bytes of `out` already written to the socket
  bool peer_eof = false;  // read side closed: flush what remains, then close
  bool paused = false;    // over the high watermark: read interest dropped
  // Interest currently registered with the poller (avoids no-op syscalls).
  bool want_read = true;
  bool want_write = false;

  size_t pending() const { return out.size() - out_offset; }
};

// Writes as much buffered output as the socket accepts without blocking.
// Returns false on a fatal transport error (peer reset, EPIPE).
bool FlushSome(int fd, Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset >= kWriteCompactThreshold) {
    conn.out.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  return true;
}

// Services one readiness event on a client connection. Returns false when
// the connection should be closed (clean EOF fully flushed, or error).
bool HandleClient(RequestHandler& service, Poller& poller, int fd,
                  const PollerEvent& event, Connection& conn) {
  bool fatal = event.error;
  if (!fatal && event.readable && !conn.paused && !conn.peer_eof) {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        conn.peer_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      fatal = true;
      break;
    }
    if (!fatal) {
      conn.out += DrainLines(service, conn.in);
      // EOF: a trailing unterminated line still counts as a request.
      if (conn.peer_eof && !conn.in.empty() && !service.shutdown_requested()) {
        conn.out += service.HandleLine(conn.in);
        conn.in.clear();
      }
    }
  }
  if (!fatal) {
    fatal = !FlushSome(fd, conn);
  }
  if (fatal) {
    return false;
  }
  if (conn.peer_eof && conn.pending() == 0) {
    return false;  // clean close: everything owed has been delivered
  }
  if (!conn.paused && conn.pending() >= kWriteHighWatermark) {
    conn.paused = true;
  } else if (conn.paused && conn.pending() <= kWriteLowWatermark) {
    conn.paused = false;
  }
  const bool want_read = !conn.paused && !conn.peer_eof;
  const bool want_write = conn.pending() > 0;
  if (want_read != conn.want_read || want_write != conn.want_write) {
    conn.want_read = want_read;
    conn.want_write = want_write;
    (void)poller.Update(fd, want_read, want_write);
  }
  return true;
}

void AcceptClients(Poller& poller, int listen_fd,
                   std::map<int, Connection>& clients) {
  while (true) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN, or a transient accept failure: retry on next event
    }
    SetNonBlocking(client);
    if (!poller.Add(client, /*read=*/true, /*write=*/false).ok()) {
      ::close(client);
      continue;
    }
    clients.emplace(client, Connection{});
  }
}

}  // namespace

StatusOr<SocketServer> SocketServer::Listen(const std::string& path) {
  StatusOr<sockaddr_un> addr = SocketAddress(path);
  if (!addr.ok()) {
    return addr.status();
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("cannot create socket", path);
  }
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      ::close(fd);
      return Status::FailedPrecondition(StrFormat(
          "socket path '%s' exists and is not a socket; refusing to delete it",
          path.c_str()));
    }
    // Probe the existing endpoint: a live daemon accepts the connection, a
    // socket left behind by a crashed run refuses it. Only the stale case
    // may be unlinked — clobbering a live daemon's endpoint would silently
    // cut it off from every future client.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      ::close(fd);
      return ErrnoStatus("cannot create probe socket", path);
    }
    const bool accepted =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&*addr),
                  sizeof(*addr)) == 0;
    const int probe_errno = errno;
    ::close(probe);
    if (accepted || (probe_errno != ECONNREFUSED && probe_errno != ENOENT)) {
      ::close(fd);
      return Status::FailedPrecondition(StrFormat(
          "socket '%s' already has a live listener", path.c_str()));
    }
    ::unlink(path.c_str());  // stale socket from a crashed run
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    const Status status = ErrnoStatus("cannot bind socket", path);
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    const Status status = ErrnoStatus("cannot listen on socket", path);
    ::close(fd);
    ::unlink(path.c_str());
    return status;
  }
  return SocketServer(fd, path);
}

SocketServer::SocketServer(SocketServer&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

SocketServer& SocketServer::operator=(SocketServer&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

SocketServer::~SocketServer() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

Status RunEventLoop(RequestHandler& service, int stdin_fd,
                    std::FILE* stdout_stream, SocketServer* server) {
  // stdout_stream may be a pipe whose reader is gone; without this a single
  // fputs would SIGPIPE the process instead of failing the one write.
  std::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<Poller> poller = MakePoller();
  std::string stdin_buffer;
  std::map<int, Connection> clients;
  bool stdin_open = stdin_fd >= 0;

  const auto drop_client = [&](std::map<int, Connection>::iterator it) {
    poller->Remove(it->first);
    ::close(it->first);
    clients.erase(it);
  };
  const auto close_clients = [&] {
    while (!clients.empty()) {
      drop_client(clients.begin());
    }
  };

  if (stdin_open) {
    if (Status added = poller->Add(stdin_fd, /*read=*/true, /*write=*/false);
        !added.ok()) {
      // epoll cannot watch regular files (a redirected stdin); fall back to
      // poll for the whole loop rather than losing the stdin transport.
      poller = std::make_unique<PollPoller>();
      (void)poller->Add(stdin_fd, /*read=*/true, /*write=*/false);
    }
  }
  if (server != nullptr) {
    SetNonBlocking(server->listen_fd());
    if (Status added =
            poller->Add(server->listen_fd(), /*read=*/true, /*write=*/false);
        !added.ok()) {
      return added;
    }
  }

  std::vector<PollerEvent> events;
  while (!service.shutdown_requested()) {
    // Without stdin, a rack with no listener could never terminate; the
    // loop still exits on SHUTDOWN, which is the supported path.
    if (!stdin_open && server == nullptr) {
      break;
    }
    if (Status waited = poller->Wait(&events); !waited.ok()) {
      close_clients();
      return waited;
    }
    for (const PollerEvent& event : events) {
      if (service.shutdown_requested()) {
        break;  // later events flush below, after the loop
      }
      if (stdin_open && event.fd == stdin_fd) {
        char chunk[4096];
        const ssize_t n = ::read(stdin_fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n > 0) {
          stdin_buffer.append(chunk, static_cast<size_t>(n));
        }
        std::string responses = DrainLines(service, stdin_buffer);
        if (n <= 0) {  // EOF: a trailing unterminated line still counts
          if (!stdin_buffer.empty()) {
            responses += service.HandleLine(stdin_buffer);
            stdin_buffer.clear();
          }
          poller->Remove(stdin_fd);
          stdin_open = false;
        }
        if (!responses.empty()) {
          // Response stream to the stdin client, not a journal file.
          std::fputs(responses.c_str(), stdout_stream);   // pandia-lint: allow(no-raw-journal-io)
          std::fflush(stdout_stream);                     // pandia-lint: allow(no-raw-journal-io)
        }
        // Stdin EOF ends a stdin-only loop (the top-of-loop check fires);
        // with a socket server the daemon merely detaches stdin and keeps
        // serving clients until SHUTDOWN.
      } else if (server != nullptr && event.fd == server->listen_fd()) {
        AcceptClients(*poller, server->listen_fd(), clients);
      } else {
        const auto it = clients.find(event.fd);
        if (it == clients.end()) {
          continue;
        }
        if (!HandleClient(service, *poller, event.fd, event, it->second)) {
          drop_client(it);
        }
      }
    }
  }
  // Deliver what is owed — in particular the "ok SHUTDOWN" block to the
  // client that asked for it — with blocking writes; the buffers are
  // watermark-bounded so this terminates promptly.
  for (auto& [fd, conn] : clients) {
    if (conn.pending() == 0) {
      continue;
    }
    SetBlocking(fd);
    (void)sock_internal::WriteAll(fd, conn.out.substr(conn.out_offset));
  }
  close_clients();
  return Status::Ok();
}

}  // namespace serve
}  // namespace pandia
