#include "runtime/physical_runtime.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace pier {

namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

sockaddr_in ToSockaddr(const NetAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.host);
  sa.sin_port = htons(addr.port);
  return sa;
}

NetAddress FromSockaddr(const sockaddr_in& sa) {
  return NetAddress{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

// Frame: 4-byte little-endian length prefix. Extracts complete frames from
// `inbuf`, appending each to `frames`.
void ExtractFrames(std::string* inbuf, std::vector<std::string>* frames) {
  size_t off = 0;
  while (inbuf->size() - off >= 4) {
    const auto* p = reinterpret_cast<const unsigned char*>(inbuf->data() + off);
    uint32_t len = p[0] | (p[1] << 8) | (p[2] << 16) |
                   (static_cast<uint32_t>(p[3]) << 24);
    if (inbuf->size() - off - 4 < len) break;
    frames->push_back(inbuf->substr(off + 4, len));
    off += 4 + len;
  }
  if (off > 0) inbuf->erase(0, off);
}

std::string Frame(const std::string& data) {
  std::string out;
  uint32_t len = static_cast<uint32_t>(data.size());
  out.reserve(4 + data.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  out += data;
  return out;
}

}  // namespace

PhysicalRuntime::PhysicalRuntime(Options options)
    : options_(options),
      rng_(options.rng_seed != 0
               ? options.rng_seed
               : static_cast<uint64_t>(std::chrono::steady_clock::now()
                                           .time_since_epoch()
                                           .count())),
      epoch_(std::chrono::steady_clock::now()) {
  PIER_CHECK(pipe(wake_pipe_) == 0);
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  io_thread_ = std::thread([this]() { IoThreadMain(); });
}

PhysicalRuntime::~PhysicalRuntime() {
  Stop();
  io_shutdown_.store(true);
  WakeIoThread();
  if (io_thread_.joinable()) io_thread_.join();
  MutexLock lock(io_mu_);
  for (auto& [port, sock] : udp_socks_)
    if (sock.fd >= 0) close(sock.fd);
  for (auto& [port, l] : tcp_listeners_)
    if (l.fd >= 0) close(l.fd);
  for (auto& [id, c] : tcp_conns_)
    if (c.fd >= 0) close(c.fd);
  for (int fd : retired_fds_) close(fd);
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
}

TimeUs PhysicalRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t PhysicalRuntime::ScheduleEvent(TimeUs delay,
                                        std::function<void()> cb) {
  uint64_t token =
      loop_.ScheduleAt(Now() + std::max<TimeUs>(0, delay), std::move(cb));
  posted_cv_.NotifyAll();
  return token;
}

void PhysicalRuntime::CancelEvent(uint64_t token) { loop_.Cancel(token); }

void PhysicalRuntime::PostFromAnyThread(std::function<void()> fn) {
  {
    MutexLock lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  posted_cv_.NotifyAll();
}

void PhysicalRuntime::Run() {
  stopped_.store(false);
  while (!stopped_.load()) {
    // Drain cross-thread posts.
    std::vector<std::function<void()>> batch;
    {
      MutexLock lock(posted_mu_);
      batch.swap(posted_);
    }
    for (auto& fn : batch) fn();

    // Run due timer events.
    loop_.RunUntil(Now());

    // Sleep until the next event or a post.
    TimeUs next = loop_.NextEventTime();
    MutexLock lock(posted_mu_);
    if (!posted_.empty() || stopped_.load()) continue;
    if (next < 0) {
      posted_cv_.WaitFor(posted_mu_, std::chrono::milliseconds(50));
    } else {
      TimeUs wait = next - Now();
      if (wait > 0) {
        posted_cv_.WaitFor(posted_mu_, std::chrono::microseconds(wait));
      }
    }
  }
}

void PhysicalRuntime::Stop() {
  stopped_.store(true);
  posted_cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

Status PhysicalRuntime::UdpListen(uint16_t port, UdpHandler* handler) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  sa.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    close(fd);
    return Status::Unavailable("bind() failed");
  }
  SetNonBlocking(fd);
  {
    MutexLock lock(io_mu_);
    if (udp_socks_.count(port)) {
      close(fd);
      return Status::AlreadyExists("udp port in use");
    }
    udp_socks_[port] = UdpSocket{fd, handler};
  }
  WakeIoThread();
  return Status::Ok();
}

void PhysicalRuntime::UdpRelease(uint16_t port) {
  {
    MutexLock lock(io_mu_);
    auto it = udp_socks_.find(port);
    if (it == udp_socks_.end()) return;
    retired_fds_.push_back(it->second.fd);
    udp_socks_.erase(it);
  }
  WakeIoThread();
}

Status PhysicalRuntime::UdpSend(uint16_t source_port,
                                const NetAddress& destination,
                                std::string payload) {
  int fd = -1;
  {
    MutexLock lock(io_mu_);
    auto it = udp_socks_.find(source_port);
    if (it == udp_socks_.end())
      return Status::InvalidArgument("udp source port not bound");
    fd = it->second.fd;
  }
  sockaddr_in sa = ToSockaddr(destination);
  ssize_t n = sendto(fd, payload.data(), payload.size(), 0,
                     reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (n < 0) return Status::Unavailable("sendto() failed");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// TCP (framed)
// ---------------------------------------------------------------------------

Status PhysicalRuntime::TcpListen(uint16_t port, TcpHandler* handler) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  sa.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      listen(fd, 64) != 0) {
    close(fd);
    return Status::Unavailable("bind/listen failed");
  }
  SetNonBlocking(fd);
  {
    MutexLock lock(io_mu_);
    if (tcp_listeners_.count(port)) {
      close(fd);
      return Status::AlreadyExists("tcp port in use");
    }
    tcp_listeners_[port] = TcpListener{fd, handler};
  }
  WakeIoThread();
  return Status::Ok();
}

void PhysicalRuntime::TcpRelease(uint16_t port) {
  {
    MutexLock lock(io_mu_);
    auto it = tcp_listeners_.find(port);
    if (it == tcp_listeners_.end()) return;
    retired_fds_.push_back(it->second.fd);
    tcp_listeners_.erase(it);
  }
  WakeIoThread();
}

Result<uint64_t> PhysicalRuntime::TcpConnect(const NetAddress& destination,
                                             TcpHandler* handler) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  SetNonBlocking(fd);
  sockaddr_in sa = ToSockaddr(destination);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return Status::Unavailable("connect() failed");
  }
  // Even a connect that completed at once is reported by the I/O thread:
  // its first poll sees the socket writable with no error.
  uint64_t conn_id;
  {
    MutexLock lock(io_mu_);
    conn_id = next_conn_id_++;
    TcpConn conn;
    conn.fd = fd;
    conn.handler = handler;
    conn.connecting = true;
    conn.peer = destination;
    tcp_conns_[conn_id] = std::move(conn);
  }
  WakeIoThread();
  return conn_id;
}

Status PhysicalRuntime::TcpWrite(uint64_t conn_id, std::string data) {
  {
    MutexLock lock(io_mu_);
    auto it = tcp_conns_.find(conn_id);
    if (it == tcp_conns_.end()) return Status::NotFound("no such connection");
    it->second.outbuf += Frame(data);
  }
  WakeIoThread();
  return Status::Ok();
}

void PhysicalRuntime::TcpClose(uint64_t conn_id) {
  {
    MutexLock lock(io_mu_);
    auto it = tcp_conns_.find(conn_id);
    if (it == tcp_conns_.end()) return;
    retired_fds_.push_back(it->second.fd);
    tcp_conns_.erase(it);
  }
  WakeIoThread();
}

NetAddress PhysicalRuntime::LocalAddress() const {
  return NetAddress{options_.advertised_host, options_.advertised_port};
}

void PhysicalRuntime::WakeIoThread() {
  char b = 1;
  ssize_t ignored = write(wake_pipe_[1], &b, 1);
  (void)ignored;
}

// ---------------------------------------------------------------------------
// The asynchronous I/O thread (Figure 3): unmarshals inbound traffic into
// scheduler events and drains outbound TCP buffers.
// ---------------------------------------------------------------------------

void PhysicalRuntime::IoThreadMain() {
  std::vector<char> buf(64 * 1024);
  while (!io_shutdown_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::function<void(short)>> actions;

    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    actions.emplace_back([this](short) {
      char tmp[64];
      while (read(wake_pipe_[0], tmp, sizeof(tmp)) > 0) {
      }
    });

    {
      MutexLock lock(io_mu_);
      // The previous round's actions are done with every released fd.
      for (int fd : retired_fds_) close(fd);
      retired_fds_.clear();
      for (auto& [port, sock] : udp_socks_) {
        UdpHandler* handler = sock.handler;
        int fd = sock.fd;
        fds.push_back(pollfd{fd, POLLIN, 0});
        actions.emplace_back([this, fd, handler, &buf](short) {
          for (;;) {
            sockaddr_in src{};
            socklen_t slen = sizeof(src);
            ssize_t n = recvfrom(fd, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&src), &slen);
            if (n <= 0) break;
            std::string payload(buf.data(), static_cast<size_t>(n));
            NetAddress from = FromSockaddr(src);
            PostFromAnyThread([handler, from, payload = std::move(payload)]() {
              handler->HandleUdp(from, payload);
            });
          }
        });
      }
      for (auto& [port, listener] : tcp_listeners_) {
        int fd = listener.fd;
        TcpHandler* handler = listener.handler;
        uint16_t p = port;
        fds.push_back(pollfd{fd, POLLIN, 0});
        actions.emplace_back([this, fd, handler, p](short) {
          (void)p;
          for (;;) {
            sockaddr_in src{};
            socklen_t slen = sizeof(src);
            int cfd = accept(fd, reinterpret_cast<sockaddr*>(&src), &slen);
            if (cfd < 0) break;
            SetNonBlocking(cfd);
            uint64_t conn_id;
            NetAddress peer = FromSockaddr(src);
            {
              // Called from the I/O thread; io_mu_ is NOT held here.
              MutexLock lock(io_mu_);
              conn_id = next_conn_id_++;
              TcpConn conn;
              conn.fd = cfd;
              conn.handler = handler;
              conn.peer = peer;
              tcp_conns_[conn_id] = std::move(conn);
            }
            PostFromAnyThread([handler, conn_id, peer]() {
              handler->HandleTcpNew(conn_id, peer);
            });
          }
        });
      }
      for (auto& [conn_id, conn] : tcp_conns_) {
        short want = POLLIN;
        if (conn.connecting || !conn.outbuf.empty()) want |= POLLOUT;
        uint64_t id = conn_id;
        int fd = conn.fd;
        fds.push_back(pollfd{fd, want, 0});
        actions.emplace_back([this, id, fd, &buf](short revents) {
          std::vector<std::string> frames;
          TcpHandler* handler = nullptr;
          bool error = false;
          bool became_open = false;
          NetAddress peer;
          {
            MutexLock lock(io_mu_);
            auto it = tcp_conns_.find(id);
            if (it == tcp_conns_.end()) return;
            TcpConn& c = it->second;
            handler = c.handler;
            peer = c.peer;
            if (c.connecting && (revents & (POLLOUT | POLLERR | POLLHUP))) {
              int err = 0;
              socklen_t elen = sizeof(err);
              getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
              if (err != 0) {
                error = true;
              } else {
                c.connecting = false;
                became_open = true;
              }
            }
            if (!error && (revents & POLLIN)) {
              for (;;) {
                ssize_t n = read(fd, buf.data(), buf.size());
                if (n > 0) {
                  c.inbuf.append(buf.data(), static_cast<size_t>(n));
                } else if (n == 0) {
                  error = true;  // peer closed
                  break;
                } else {
                  if (errno != EAGAIN && errno != EWOULDBLOCK) error = true;
                  break;
                }
              }
              ExtractFrames(&c.inbuf, &frames);
            }
            if (!error && !c.connecting && !c.outbuf.empty()) {
              ssize_t n = write(fd, c.outbuf.data(), c.outbuf.size());
              if (n > 0) {
                c.outbuf.erase(0, static_cast<size_t>(n));
              } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
                error = true;
              }
            }
            if (error) {
              close(c.fd);
              tcp_conns_.erase(it);
            }
          }
          if (became_open && handler != nullptr) {
            PostFromAnyThread(
                [handler, id, peer]() { handler->HandleTcpNew(id, peer); });
          }
          for (auto& frame : frames) {
            PostFromAnyThread([handler, id, frame = std::move(frame)]() {
              handler->HandleTcpData(id, frame);
            });
          }
          if (error && handler != nullptr) {
            PostFromAnyThread([handler, id]() { handler->HandleTcpError(id); });
          }
        });
      }
    }

    int rc = poll(fds.data(), fds.size(), 100);
    if (rc <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) actions[i](fds[i].revents);
    }
  }
}

}  // namespace pier
