// The Physical Runtime Environment (§3.1.3, Figure 3).
//
// One PhysicalRuntime instance hosts one PIER node on a real machine: the
// standard system clock drives the Main Scheduler's priority queue, and a
// single asynchronous I/O thread marshals outbound messages onto the network
// and posts inbound messages back into the scheduler, exactly as in the
// paper's Figure 3. UDP datagrams are the primary transport; the framed TCP
// channel is used for client connections.
//
// All Vri methods must be called from the event thread (the thread running
// Run()), except PostFromAnyThread.

#ifndef PIER_RUNTIME_PHYSICAL_RUNTIME_H_
#define PIER_RUNTIME_PHYSICAL_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/event_loop.h"
#include "runtime/vri.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pier {

class PhysicalRuntime : public Vri {
 public:
  struct Options {
    /// Address advertised to peers as NetAddress.host (IPv4, host order).
    /// Defaults to 127.0.0.1 for single-machine deployments. Nothing in the
    /// tree sets it because every in-tree run is single-machine; a
    /// multi-machine deployment must, so it stays a setting.
    // pier-lint: allow(unset-option)
    uint32_t advertised_host = 0x7f000001;
    /// Port advertised in LocalAddress().
    uint16_t advertised_port = 0;
    uint64_t rng_seed = 0;  // 0 = derive from the clock
  };

  PhysicalRuntime() : PhysicalRuntime(Options{}) {}
  explicit PhysicalRuntime(Options options);
  ~PhysicalRuntime() override;

  PhysicalRuntime(const PhysicalRuntime&) = delete;
  PhysicalRuntime& operator=(const PhysicalRuntime&) = delete;

  /// Run the Main Scheduler until Stop() is called. Blocks the calling
  /// thread; that thread becomes the event thread.
  void Run();

  /// Request Run() to return. Safe from any thread.
  void Stop();

  /// Enqueue `fn` to run on the event thread. Safe from any thread.
  void PostFromAnyThread(std::function<void()> fn);

  // --- Vri --------------------------------------------------------------
  TimeUs Now() const override;
  uint64_t ScheduleEvent(TimeUs delay, std::function<void()> cb) override;
  void CancelEvent(uint64_t token) override;
  Status UdpListen(uint16_t port, UdpHandler* handler) override;
  void UdpRelease(uint16_t port) override;
  Status UdpSend(uint16_t source_port, const NetAddress& destination,
                 std::string payload) override;
  Status TcpListen(uint16_t port, TcpHandler* handler) override;
  void TcpRelease(uint16_t port) override;
  Result<uint64_t> TcpConnect(const NetAddress& destination,
                              TcpHandler* handler) override;
  Status TcpWrite(uint64_t conn_id, std::string data) override;
  void TcpClose(uint64_t conn_id) override;
  NetAddress LocalAddress() const override;
  Rng* rng() override { return &rng_; }

 private:
  struct UdpSocket {
    int fd = -1;
    UdpHandler* handler = nullptr;
  };
  struct TcpListener {
    int fd = -1;
    TcpHandler* handler = nullptr;
  };
  struct TcpConn {
    int fd = -1;
    TcpHandler* handler = nullptr;
    bool connecting = false;   // dialed, open not yet reported
    std::string inbuf;         // partial frames
    std::string outbuf;        // pending writes
    NetAddress peer;
  };

  void IoThreadMain();
  void WakeIoThread();

  Options options_;
  EventLoop loop_;
  Rng rng_;

  // Event-thread sleep/wake.
  Mutex posted_mu_;
  CondVar posted_cv_;
  std::vector<std::function<void()>> posted_ PIER_GUARDED_BY(posted_mu_);
  std::atomic<bool> stopped_{false};

  // The I/O-thread seam: everything the event thread and the I/O thread
  // both touch lives behind io_mu_. This is the locking contract the
  // per-shard runtime (ROADMAP "Deferred") would be partitioned against.
  Mutex io_mu_;
  std::map<uint16_t, UdpSocket> udp_socks_ PIER_GUARDED_BY(io_mu_);
  std::map<uint16_t, TcpListener> tcp_listeners_ PIER_GUARDED_BY(io_mu_);
  std::map<uint64_t, TcpConn> tcp_conns_ PIER_GUARDED_BY(io_mu_);
  uint64_t next_conn_id_ PIER_GUARDED_BY(io_mu_) = 1;
  /// Sockets released while the I/O thread may still poll or read them
  /// from its current round; it closes them before building the next one.
  std::vector<int> retired_fds_ PIER_GUARDED_BY(io_mu_);
  int wake_pipe_[2] = {-1, -1};
  std::thread io_thread_;
  std::atomic<bool> io_shutdown_{false};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace pier

#endif  // PIER_RUNTIME_PHYSICAL_RUNTIME_H_
