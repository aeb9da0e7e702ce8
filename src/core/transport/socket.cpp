// Real-socket wire backend (config.mynode >= 0): each OS process hosts one
// node's contiguous PE slice; peers talk over a full mesh of Unix-domain
// (CONVERSE_RDV directory) or loopback-TCP (CONVERSE_TCP_BASE) byte
// streams carrying the length-prefixed records of core/transport/wire.h.
//
// Threading model: ONE comm thread per node (the "one comm drain" of the
// two-level SMP design).  PE threads never touch a socket — SendRemote /
// SendNodeCast serialize the record into a per-peer outbox under one
// engine mutex and poke a wake pipe; the comm thread gathers queued
// records with sendmsg (many records per syscall — aggregation frames are
// the wire unit, so one syscall often moves hundreds of logical
// messages), reads the peer streams, and injects rebuilt messages straight
// onto the destination PE's delivery lane (DeliverFromWire) or expands
// node-cast records (CstNodeCastExpand).
//
// Receive rule: small records are read in 256 KiB chunks and parsed in
// place; a message body of at least kGatherMinBytes is read() straight
// into its final CmiAlloc buffer.  After such a body the stream sits at a
// record boundary, so the next header is read on its own (riding the same
// readv as the body's last bytes) and a following large body lands
// directly too.  The one staging copy left is a large body that a chunk
// read swallowed after a small record: its in-chunk bytes are copied once.
//
// Rendezvous: node i listens at its well-known address and CONNECTS to
// every j < i (retry with backoff until wire_timeout_ms), then sends a
// hello record identifying itself; node j learns who called from that
// hello.  Exactly one duplex stream per node pair.
//
// Shutdown: Machine::Run calls Stop() after the PE threads joined.  The
// comm thread flushes every outbox, sends a goodbye record on each
// stream, and keeps reading (still delivering) until every peer's goodbye
// (or EOF) arrives — closing abruptly instead would RST away bytes the
// peer has not read yet.
//
// Failure: a stream that drops without a goodbye is reconnected by the
// connecting side with backoff; the front outbox record is retransmitted
// from its start (the receiver's parser discarded any partial record at
// EOF).  A peer that stays down past wire_timeout_ms aborts the machine —
// the satellite fault tests kill a child mid-stream and expect exactly
// that.
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "converse/check.h"
#include "converse/msg.h"
#include "converse/util/timer.h"
#include "core/msg_pool.h"
#include "core/pe_state.h"
#include "core/stream.h"
#include "core/transport/transport.h"
#include "core/transport/wire.h"

namespace converse::detail {
namespace {

/// One wire record (header + body) waiting in an outbox; `off` tracks
/// partial sendmsg progress on the deque's front element.  Small records
/// are fully serialized into `data`; large ones keep only the 16-byte
/// header there and gather the body straight out of the owned message
/// (`msg`), which is freed once the record has fully left the kernel —
/// the sendmsg iovec is the zero-copy boundary, not a staging memcpy.
struct OutBuf {
  std::vector<unsigned char> data;
  void* msg = nullptr;       // owned message backing the body (or null)
  std::size_t msg_len = 0;   // body bytes inside *msg
  std::size_t off = 0;       // progress over data + msg body
  std::size_t size() const { return data.size() + msg_len; }
};

/// Per-peer connection state.  fd/parser/flags are comm-thread-only;
/// `outbox` is shared with PE threads under SocketEngine::mu_.
struct Peer {
  int fd = -1;
  bool hello_rx = false;
  bool goodbye_rx = false;
  bool goodbye_tx = false;
  std::deque<OutBuf> outbox;
  WireParser parser;
  std::int64_t down_since_ns = -1;  // -1 while the stream is up
  std::int64_t next_dial_ns = 0;    // reconnect backoff gate
  // Direct-fill receive: a large in-flight message body being read()
  // straight into its final allocation (the mirror of the send gather).
  void* rx_msg = nullptr;
  std::uint32_t rx_len = 0;  // body bytes expected
  std::uint32_t rx_off = 0;  // body bytes landed so far
  WireRec rx_rec;
  // Header-first receive: set at a record boundary after a large record;
  // the next header is read into rx_hdr on its own instead of a chunk.
  // Outside header-first mode rx_hdr_have is 0, or 16 when the header
  // read alone announced a small record: those bytes start the next chunk.
  bool rx_hdr_first = false;
  std::uint32_t rx_hdr_have = 0;
  unsigned char rx_hdr[kWireRecBytes] = {};
};

/// An accepted connection whose hello has not arrived yet.  Only the
/// 16-byte hello is read here; the records behind it wait in the socket
/// for the promoted peer's own reads.
struct Pending {
  int fd;
  std::uint32_t have = 0;
  unsigned char hello[kWireRecBytes] = {};
};

/// Bodies at least this large skip the outbox staging memcpy and are
/// gathered by sendmsg straight from the (transferred-ownership) message.
/// Below it the copy is cheaper than carrying ownership around.
constexpr std::uint32_t kGatherMinBytes = 4096;

void SetNonBlocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

/// Deepen the kernel buffers: the drain loop moves data in large batched
/// writes, and a deeper pipe means fewer sender stalls and context
/// switches when both ranks share cores (the kernel may clamp the value).
void WidenSocketBuffers(int fd) {
  const int bytes = 1 << 20;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

class SocketEngine : public Transport {
 public:
  explicit SocketEngine(Machine& m) : machine_(m) {}

  ~SocketEngine() override {
    // Stop() normally ran from Machine::Run; this is the safety net for a
    // machine torn down without running.
    Stop();
    CloseAll();
  }

  const char* name() const override { return "socket"; }

  void Start() override {
    const MachineConfig& c = machine_.config();
    mynode_ = c.mynode;
    peers_.resize(static_cast<std::size_t>(c.nnodes));
    unix_mode_ =
        c.rendezvous_dir != nullptr && c.rendezvous_dir[0] != '\0';
    if (!unix_mode_ && c.tcp_base_port <= 0) {
      throw std::runtime_error(
          "[Cmi] socket transport needs a rendezvous: set CONVERSE_RDV to "
          "a shared directory or CONVERSE_TCP_BASE to a port");
    }
    if (pipe(wake_) != 0) {
      throw std::runtime_error("[Cmi] socket transport: pipe() failed");
    }
    SetNonBlocking(wake_[0]);
    SetNonBlocking(wake_[1]);
    OpenListener();
    // Higher-numbered nodes dial us; start their rendezvous clocks now so
    // a peer that dies before ever connecting trips the wire timeout in
    // TendDisconnected instead of leaving this node waiting forever (the
    // clock clears when the peer's hello arrives).
    const std::int64_t now = util::NowNs();
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (static_cast<int>(i) > mynode_) {
        peers_[i].down_since_ns = now;
      }
    }
    running_ = true;
    comm_ = std::thread([this] { CommMain(); });
  }

  void Stop() override {
    if (!running_) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutting_down_ = true;
    }
    Wake();
    comm_.join();
    running_ = false;
    CloseAll();
  }

  bool SendRemote(PeState& src, int dest_pe, void* msg,
                  bool immediate) override {
    MsgHeader* h = Header(msg);
    // Carriers that forward by pointer never cross the wire; broadcasts
    // arrive here only as node-cast records.
    assert((h->flags & (kMsgFlagBcast | kMsgFlagSbcast)) == 0);
    const std::uint32_t len = h->total_size;
    CountRecordSent(src, len);
    if (len >= kGatherMinBytes) {
      // Zero-copy path: the outbox takes ownership and sendmsg gathers
      // the body straight from the message; freed after the last byte.
      Enqueue(machine_.NodeOf(dest_pe),
              immediate ? kWireImmediate : kWireMessage, dest_pe, msg, len,
              msg);
    } else {
      Enqueue(machine_.NodeOf(dest_pe),
              immediate ? kWireImmediate : kWireMessage, dest_pe, msg, len);
      check::OnReclaim(msg);  // the wire consumed the in-flight buffer
      CmiFree(msg);
    }
    return true;  // in the outbox either way: the wire owns it now
  }

  void SendNodeCast(PeState& src, int node, const void* image,
                    std::uint32_t size) override {
    assert(node != mynode_);
    Enqueue(node, kWireNodeCast, machine_.NodeFirst(node), image, size);
    CountRecordSent(src, size);
  }

 private:
  // ---- addresses -----------------------------------------------------

  std::string UnixPath(int node) const {
    std::string p = machine_.config().rendezvous_dir;
    p += "/node";
    p += std::to_string(node);
    p += ".sock";
    return p;
  }

  void OpenListener() {
    if (unix_mode_) {
      listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd_ < 0) {
        throw std::runtime_error("[Cmi] socket transport: socket() failed");
      }
      const std::string path = UnixPath(mynode_);
      unlink(path.c_str());
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      if (path.size() >= sizeof(sa.sun_path)) {
        throw std::runtime_error(
            "[Cmi] socket transport: CONVERSE_RDV path too long for a "
            "unix socket address");
      }
      std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
      if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
          0) {
        throw std::runtime_error(
            "[Cmi] socket transport: bind(" + path + ") failed: " +
            std::strerror(errno));
      }
    } else {
      listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd_ < 0) {
        throw std::runtime_error("[Cmi] socket transport: socket() failed");
      }
      const int one = 1;
      setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      sa.sin_port = htons(static_cast<std::uint16_t>(
          machine_.config().tcp_base_port + mynode_));
      if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
          0) {
        throw std::runtime_error(
            std::string("[Cmi] socket transport: bind(tcp port) failed: ") +
            std::strerror(errno));
      }
    }
    if (listen(listen_fd_, machine_.config().nnodes + 8) != 0) {
      throw std::runtime_error("[Cmi] socket transport: listen() failed");
    }
    SetNonBlocking(listen_fd_);
  }

  /// One blocking-style dial attempt to `node` (the lower-numbered side of
  /// the pair).  Returns the connected fd or -1.
  int Dial(int node) {
    int fd;
    if (unix_mode_) {
      fd = socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      const std::string path = UnixPath(node);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
      if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        close(fd);
        return -1;
      }
    } else {
      fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      sa.sin_port = htons(static_cast<std::uint16_t>(
          machine_.config().tcp_base_port + node));
      if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        close(fd);
        return -1;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    WidenSocketBuffers(fd);
    return fd;
  }

  // ---- outboxes (PE threads + comm thread) ---------------------------

  /// Queue one record.  With `owned_msg` set, the body IS the message
  /// image and ownership transfers to the outbox: only the 16-byte header
  /// is built here, sendmsg gathers the body from the message itself, and
  /// the message is freed when the record fully leaves the kernel.
  void Enqueue(int node, std::uint8_t kind, int dest_pe, const void* body,
               std::uint32_t len, void* owned_msg = nullptr) {
    assert(node >= 0 && node < static_cast<int>(peers_.size()) &&
           node != mynode_);
    WireRec rec;
    rec.length = len;
    rec.dest_pe = static_cast<std::uint16_t>(dest_pe);
    rec.src_node = static_cast<std::uint16_t>(mynode_);
    rec.kind = kind;
    OutBuf buf;
    if (owned_msg != nullptr) {
      buf.data.resize(kWireRecBytes);
      WireEncode(rec, buf.data.data());
      buf.msg = owned_msg;
      buf.msg_len = len;
    } else {
      buf.data.resize(kWireRecBytes + len);
      WireEncode(rec, buf.data.data());
      if (len > 0) std::memcpy(buf.data.data() + kWireRecBytes, body, len);
    }
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Peer& p = peers_[static_cast<std::size_t>(node)];
      was_empty = p.outbox.empty();
      p.outbox.push_back(std::move(buf));
    }
    // A non-empty outbox means the comm thread is already draining (or
    // has POLLOUT armed); only the first record needs the wake byte.
    if (was_empty) Wake();
  }

  void Wake() {
    const char b = 1;
    // EAGAIN (pipe full) means the comm thread is hopelessly behind on
    // wakeups already — it will see the work without this byte.
    while (write(wake_[1], &b, 1) < 0 && errno == EINTR) {
    }
  }

  // ---- comm thread ---------------------------------------------------

  void CommMain() {
    // Dial every lower-numbered node; their listeners may not exist yet
    // (processes start in arbitrary order), so retry with backoff.
    const std::int64_t deadline =
        util::NowNs() +
        static_cast<std::int64_t>(machine_.config().wire_timeout_ms) *
            1000000;
    for (int j = 0; j < mynode_; ++j) {
      Peer& p = peers_[static_cast<std::size_t>(j)];
      std::int64_t backoff_ns = 1000000;  // 1 ms, doubling to 100 ms
      for (;;) {
        p.fd = Dial(j);
        if (p.fd >= 0) break;
        if (util::NowNs() > deadline || ShuttingDown()) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(backoff_ns));
        if (backoff_ns < 100000000) backoff_ns *= 2;
      }
      if (p.fd < 0) {
        if (!ShuttingDown()) {
          Fail("rendezvous with node " + std::to_string(j) +
               " timed out");
        }
        return;
      }
      SendHello(p);
      SetNonBlocking(p.fd);
    }
    Loop();
  }

  void SendHello(Peer& p) {
    WireRec rec;
    rec.length = 0;
    rec.dest_pe = 0;
    rec.src_node = static_cast<std::uint16_t>(mynode_);
    rec.kind = kWireHello;
    unsigned char buf[kWireRecBytes];
    WireEncode(rec, buf);
    // The fd is still blocking here (or the record rides the outbox on
    // reconnect); 16 bytes into a fresh stream cannot meaningfully block.
    std::size_t off = 0;
    while (off < kWireRecBytes) {
      const ssize_t n =
          send(p.fd, buf + off, kWireRecBytes - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return;  // the read side will notice the dead stream
      }
      syscalls_.fetch_add(1, std::memory_order_relaxed);
      off += static_cast<std::size_t>(n);
    }
  }

  bool ShuttingDown() {
    std::lock_guard<std::mutex> lock(mu_);
    return shutting_down_;
  }

  void Fail(const std::string& what) {
    std::fprintf(machine_.err(), "[Cmi] socket transport: %s\n",
                 what.c_str());
    std::fflush(machine_.err());
    machine_.Abort(std::make_exception_ptr(
        std::runtime_error("[Cmi] socket transport: " + what)));
  }

  void Loop() {
    std::int64_t goodbye_deadline = 0;
    for (;;) {
      const bool down = ShuttingDown();
      if (down && goodbye_deadline == 0) {
        goodbye_deadline =
            util::NowNs() +
            static_cast<std::int64_t>(machine_.config().wire_timeout_ms) *
                1000000;
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          Peer& p = peers_[i];
          if (static_cast<int>(i) == mynode_ || p.fd < 0 ||
              p.goodbye_tx) {
            continue;
          }
          WireRec rec;
          rec.length = 0;
          rec.dest_pe = 0;
          rec.src_node = static_cast<std::uint16_t>(mynode_);
          rec.kind = kWireGoodbye;
          OutBuf buf;
          buf.data.resize(kWireRecBytes);
          WireEncode(rec, buf.data.data());
          p.outbox.push_back(std::move(buf));
          p.goodbye_tx = true;
        }
      }
      if (down && Drained(goodbye_deadline)) return;

      std::vector<pollfd>& fds = pollfds_;  // reused across iterations
      std::vector<int>& who = pollwho_;  // parallel: peer index, or -1/-2
                                         // for wake/listen, -(3+k) for
                                         // pending_[k]
      fds.clear();
      who.clear();
      fds.push_back({wake_[0], POLLIN, 0});
      who.push_back(-1);
      fds.push_back({listen_fd_, POLLIN, 0});
      who.push_back(-2);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < peers_.size(); ++i) {
          Peer& p = peers_[i];
          if (p.fd < 0) continue;
          short ev = POLLIN;
          if (!p.outbox.empty()) ev |= POLLOUT;
          fds.push_back({p.fd, ev, 0});
          who.push_back(static_cast<int>(i));
        }
      }
      for (std::size_t k = 0; k < pending_.size(); ++k) {
        fds.push_back({pending_[k].fd, POLLIN, 0});
        who.push_back(-3 - static_cast<int>(k));
      }

      const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
      if (rc < 0 && errno != EINTR) {
        Fail(std::string("poll failed: ") + std::strerror(errno));
        return;
      }

      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (fds[k].revents == 0) continue;
        const int tag = who[k];
        if (tag == -1) {
          char sink[256];
          while (read(wake_[0], sink, sizeof(sink)) > 0) {
          }
        } else if (tag == -2) {
          AcceptAll();
        } else if (tag <= -3) {
          ReadPending(static_cast<std::size_t>(-3 - tag));
        } else {
          Peer& p = peers_[static_cast<std::size_t>(tag)];
          if (fds[k].fd != p.fd) continue;  // replaced by a reconnect
          if (fds[k].revents & (POLLIN | POLLERR | POLLHUP)) {
            ReadPeer(tag, p);
          }
          if (p.fd >= 0 && (fds[k].revents & POLLOUT)) FlushPeer(p);
        }
      }
      // Opportunistic flush: records enqueued since the poll snapshot.
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (Peer& p : peers_) {
          if (p.fd >= 0 && !p.outbox.empty()) FlushLocked(p);
        }
      }
      pending_.erase(
          std::remove_if(pending_.begin(), pending_.end(),
                         [](const Pending& c) { return c.fd < 0; }),
          pending_.end());
      TendDisconnected();
      if (machine_.aborted() && !down) {
        // A PE threw; keep the wire alive until Stop() so late peer bytes
        // do not RST, but stop waiting on anything.
      }
    }
  }

  /// Shutdown progress: true once every stream has flushed its outbox and
  /// seen the peer's goodbye (or EOF / the deadline — a dead peer must
  /// not wedge exit).
  bool Drained(std::int64_t deadline) {
    bool all = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        if (static_cast<int>(i) == mynode_) continue;
        Peer& p = peers_[i];
        if (p.fd >= 0 && !p.outbox.empty()) all = false;
        if (p.fd >= 0 && !p.goodbye_rx) all = false;
      }
    }
    if (all) return true;
    return util::NowNs() > deadline;
  }

  void AcceptAll() {
    for (;;) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      SetNonBlocking(fd);
      if (!unix_mode_) {
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      WidenSocketBuffers(fd);
      pending_.push_back(Pending{fd});
    }
  }

  /// Read an unidentified inbound stream until its hello names the peer,
  /// then promote it; the next poll picks up whatever follows the hello.
  void ReadPending(std::size_t k) {
    Pending& c = pending_[k];
    const ssize_t n = read(c.fd, c.hello + c.have, kWireRecBytes - c.have);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
      close(c.fd);
      c.fd = -1;
      return;
    }
    syscalls_.fetch_add(1, std::memory_order_relaxed);
    c.have += static_cast<std::uint32_t>(n);
    if (c.have < kWireRecBytes) return;  // hello still partial
    WireRec rec;
    if (!WireDecode(c.hello, &rec) || rec.kind != kWireHello ||
        rec.src_node >= peers_.size() ||
        static_cast<int>(rec.src_node) == mynode_) {
      close(c.fd);
      c.fd = -1;
      return;
    }
    Peer& p = peers_[rec.src_node];
    if (p.fd >= 0) {
      // Stale stream superseded by this reconnect.
      close(p.fd);
    }
    DropPartialRecord(p);
    p.fd = c.fd;
    p.hello_rx = true;
    p.goodbye_rx = false;
    p.down_since_ns = -1;
    c.fd = -1;
  }

  /// One readv on a peer stream, retrying EINTR.  Returns the bytes read,
  /// or -1 when the caller should stop reading: EAGAIN, or the stream went
  /// down (and was torn down here).
  ssize_t ReadStream(int node, Peer& p, iovec* iov, int cnt) {
    for (;;) {
      const ssize_t n = readv(p.fd, iov, cnt);
      if (n > 0) {
        syscalls_.fetch_add(1, std::memory_order_relaxed);
        return n;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || errno != EAGAIN) OnStreamDown(node, p);
      return -1;
    }
  }

  void ReadPeer(int node, Peer& p) {
    for (;;) {
      if (p.rx_msg != nullptr) {
        // Direct fill: the rest of a large body reads straight into its
        // final allocation, and the same readv picks up the next header.
        iovec iov[2];
        iov[0].iov_base = static_cast<unsigned char*>(p.rx_msg) + p.rx_off;
        iov[0].iov_len = p.rx_len - p.rx_off;
        iov[1].iov_base = p.rx_hdr;
        iov[1].iov_len = kWireRecBytes;
        const ssize_t n = ReadStream(node, p, iov, 2);
        if (n < 0) return;
        const std::size_t body =
            std::min(static_cast<std::size_t>(n), iov[0].iov_len);
        p.rx_off += static_cast<std::uint32_t>(body);
        p.rx_hdr_have = static_cast<std::uint32_t>(n - body);
        if (p.rx_off == p.rx_len) FinishDirectFill(p);
        continue;
      }

      if (p.rx_hdr_first) {
        if (p.rx_hdr_have < kWireRecBytes) {
          iovec iov{p.rx_hdr + p.rx_hdr_have, kWireRecBytes - p.rx_hdr_have};
          const ssize_t n = ReadStream(node, p, &iov, 1);
          if (n < 0) return;
          p.rx_hdr_have += static_cast<std::uint32_t>(n);
          if (p.rx_hdr_have < kWireRecBytes) continue;
        }
        if (!TakeHeader(node, p)) return;
        continue;
      }

      unsigned char chunk[262144];
      const std::size_t carry = p.rx_hdr_have;
      std::memcpy(chunk, p.rx_hdr, carry);
      iovec iov{chunk + carry, sizeof(chunk) - carry};
      const ssize_t n = ReadStream(node, p, &iov, 1);
      if (n < 0) return;
      p.rx_hdr_have = 0;
      if (!FeedBytes(node, p, chunk, carry + static_cast<std::size_t>(n))) {
        return;
      }
      if (static_cast<std::size_t>(n) < iov.iov_len && p.rx_msg == nullptr) {
        return;
      }
    }
  }

  /// Message records whose body is read straight into its final buffer.
  bool LandsDirect(const WireRec& rec) const {
    return (rec.kind == kWireMessage || rec.kind == kWireImmediate) &&
           rec.length >= kGatherMinBytes && machine_.IsLocalPe(rec.dest_pe);
  }

  void ArmDirectFill(Peer& p, const WireRec& rec) {
    p.rx_msg = CmiAlloc(rec.length);
    p.rx_rec = rec;
    p.rx_len = rec.length;
    p.rx_off = 0;
  }

  /// Act on a header read on its own (header-first mode): a large message
  /// arms the next direct fill and an empty record is dispatched, both
  /// staying in header-first mode; any other record's header is carried
  /// into the next chunk read.  False when the stream was torn down.
  bool TakeHeader(int node, Peer& p) {
    WireRec rec;
    if (!WireDecode(p.rx_hdr, &rec)) return Malformed(node, p);
    if (LandsDirect(rec)) {
      p.rx_hdr_have = 0;
      ArmDirectFill(p, rec);
    } else if (rec.length == 0) {
      p.rx_hdr_have = 0;
      Dispatch(p, rec, p.rx_hdr);  // reads no body bytes
    } else {
      p.rx_hdr_first = false;
    }
    return true;
  }

  /// Route `n` fresh stream bytes (a chunk read).  The parser's partial
  /// record, if any, is completed from the front; the remaining records
  /// are parsed and dispatched IN the chunk.  A large message body that
  /// overruns the chunk arms the direct fill, a partial header switches
  /// to header-first mode, and only a small partial tail lands in the
  /// parser.  False when the stream was torn down.
  bool FeedBytes(int node, Peer& p, const unsigned char* data,
                 std::size_t n) {
    std::size_t off = 0;
    while (p.parser.pending() > 0 && off < n) {
      const std::size_t take = std::min(p.parser.missing(), n - off);
      p.parser.Append(data + off, take);
      off += take;
      if (!DrainParser(node, p)) return false;
    }
    bool after_large = false;
    while (n - off >= kWireRecBytes) {
      WireRec rec;
      if (!WireDecode(data + off, &rec)) return Malformed(node, p);
      const unsigned char* body = data + off + kWireRecBytes;
      const std::size_t avail = n - off - kWireRecBytes;
      after_large = LandsDirect(rec);
      if (after_large && avail < rec.length) {
        // Large body split across reads: land what we have and read the
        // rest straight into the message.
        ArmDirectFill(p, rec);
        std::memcpy(p.rx_msg, body, avail);
        p.rx_off = static_cast<std::uint32_t>(avail);
        return true;
      }
      if (avail < rec.length) break;  // small partial tail: buffer it
      Dispatch(p, rec, body);
      off += kWireRecBytes + rec.length;
    }
    if (n - off >= kWireRecBytes) {
      p.parser.Append(data + off, n - off);
    } else if (off < n || after_large) {
      // A partial header, or a boundary right after a large record: read
      // the next header on its own.
      p.rx_hdr_have = static_cast<std::uint32_t>(n - off);
      std::memcpy(p.rx_hdr, data + off, n - off);
      p.rx_hdr_first = true;
    }
    return true;
  }

  void FinishDirectFill(Peer& p) {
    void* msg = p.rx_msg;
    const WireRec rec = p.rx_rec;
    p.rx_msg = nullptr;
    p.rx_len = 0;
    p.rx_off = 0;
    p.rx_hdr_first = true;  // the stream sits at a record boundary
    MsgPoolRestampFlag(msg);  // the wire image carried the sender's bit
    bytes_received_.fetch_add(rec.length, std::memory_order_relaxed);
    DeliverFromWire(machine_, rec.dest_pe, msg,
                    rec.kind == kWireImmediate);
  }

  /// Parse and deliver every complete record buffered in the parser;
  /// false when the stream was torn down (malformed bytes).
  bool DrainParser(int node, Peer& p) {
    for (;;) {
      WireRec rec;
      const unsigned char* body;
      const int r = p.parser.Next(&rec, &body);
      if (r == 0) return true;
      if (r < 0) return Malformed(node, p);
      Dispatch(p, rec, body);
    }
  }

  /// A corrupt header: there is no resynchronizing a framed stream.
  /// Always false, for the callers' teardown returns.
  bool Malformed(int node, Peer& p) {
    Fail("malformed record from node " + std::to_string(node));
    close(p.fd);
    p.fd = -1;
    return false;
  }

  /// Deliver one complete record (body fully materialized at `body`).
  void Dispatch(Peer& p, const WireRec& rec, const unsigned char* body) {
    switch (rec.kind) {
      case kWireHello:
        p.hello_rx = true;
        break;
      case kWireGoodbye:
        p.goodbye_rx = true;
        break;
      case kWireNodeCast:
        bytes_received_.fetch_add(rec.length, std::memory_order_relaxed);
        CstNodeCastExpand(machine_, nullptr, mynode_, body, rec.length);
        break;
      case kWireMessage:
      case kWireImmediate: {
        if (!machine_.IsLocalPe(rec.dest_pe)) break;  // misrouted
        void* msg = CmiAlloc(rec.length);
        std::memcpy(msg, body, rec.length);
        MsgPoolRestampFlag(msg);
        bytes_received_.fetch_add(rec.length, std::memory_order_relaxed);
        DeliverFromWire(machine_, rec.dest_pe, msg,
                        rec.kind == kWireImmediate);
        break;
      }
      default:
        break;
    }
  }

  /// Forget a partly received record: it died with its stream, and the
  /// sender retransmits it from its start on the next one.
  void DropPartialRecord(Peer& p) {
    p.parser.Reset();
    if (p.rx_msg != nullptr) CmiFree(p.rx_msg);
    p.rx_msg = nullptr;
    p.rx_len = 0;
    p.rx_off = 0;
    p.rx_hdr_first = false;
    p.rx_hdr_have = 0;
  }

  void OnStreamDown(int node, Peer& p) {
    close(p.fd);
    p.fd = -1;
    DropPartialRecord(p);
    if (p.goodbye_rx || ShuttingDown()) return;  // clean end
    p.down_since_ns = util::NowNs();
    p.next_dial_ns = p.down_since_ns;
    {
      // The peer resends its partial front record on its side; we resend
      // ours: rewind the front outbox record to its start.
      std::lock_guard<std::mutex> lock(mu_);
      if (!p.outbox.empty()) p.outbox.front().off = 0;
    }
    (void)node;
  }

  /// Reconnect (connecting side) or time out streams that are down.
  void TendDisconnected() {
    const std::int64_t now = util::NowNs();
    const std::int64_t timeout_ns =
        static_cast<std::int64_t>(machine_.config().wire_timeout_ms) *
        1000000;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = peers_[i];
      if (static_cast<int>(i) == mynode_ || p.down_since_ns < 0) continue;
      if (p.fd >= 0) continue;
      if (now - p.down_since_ns > timeout_ns) {
        if (!ShuttingDown() && !machine_.aborted()) {
          Fail("node " + std::to_string(i) +
               " unreachable past the wire timeout");
        }
        p.down_since_ns = -1;  // give up; stop re-reporting
        continue;
      }
      if (static_cast<int>(i) < mynode_ && now >= p.next_dial_ns) {
        const int fd = Dial(static_cast<int>(i));
        if (fd >= 0) {
          p.fd = fd;
          SendHello(p);
          SetNonBlocking(fd);
          p.down_since_ns = -1;
          reconnects_.fetch_add(1, std::memory_order_relaxed);
        } else {
          p.next_dial_ns = now + 100000000;  // retry in 100 ms
        }
      }
    }
  }

  void FlushPeer(Peer& p) {
    std::lock_guard<std::mutex> lock(mu_);
    FlushLocked(p);
  }

  /// Gather as many queued records as fit into iovecs and push them with
  /// sendmsg until EAGAIN or the outbox empties.  Zero-copy records
  /// contribute two iovecs (header bytes + the message image itself); the
  /// message is freed once its last byte is accepted.  Caller holds mu_.
  void FlushLocked(Peer& p) {
    while (!p.outbox.empty() && p.fd >= 0) {
      iovec iov[16];
      int cnt = 0;
      std::size_t queued = 0;
      for (const OutBuf& b : p.outbox) {
        if (cnt >= 15) break;  // a gathered record may need two slots
        if (b.off < b.data.size()) {
          iov[cnt].iov_base =
              const_cast<unsigned char*>(b.data.data()) + b.off;
          iov[cnt].iov_len = b.data.size() - b.off;
          queued += iov[cnt].iov_len;
          ++cnt;
          if (b.msg != nullptr) {
            iov[cnt].iov_base = b.msg;
            iov[cnt].iov_len = b.msg_len;
            queued += b.msg_len;
            ++cnt;
          }
        } else {
          const std::size_t body_off = b.off - b.data.size();
          iov[cnt].iov_base = static_cast<unsigned char*>(b.msg) + body_off;
          iov[cnt].iov_len = b.msg_len - body_off;
          queued += iov[cnt].iov_len;
          ++cnt;
        }
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<std::size_t>(cnt);
      const ssize_t n = sendmsg(p.fd, &mh, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) return;
        // Stream broke under us; the read side handles teardown/reconnect
        // on its next poll (POLLERR/POLLHUP).
        return;
      }
      syscalls_.fetch_add(1, std::memory_order_relaxed);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        OutBuf& front = p.outbox.front();
        const std::size_t want = front.size() - front.off;
        if (left >= want) {
          left -= want;
          if (front.msg != nullptr) {
            check::OnReclaim(front.msg);  // its last byte left the kernel
            CmiFree(front.msg);
          }
          p.outbox.pop_front();
        } else {
          front.off += left;
          left = 0;
        }
      }
      if (static_cast<std::size_t>(n) < queued) return;  // kernel is full
    }
  }

  void CloseAll() {
    for (Peer& p : peers_) {
      if (p.fd >= 0) close(p.fd);
      p.fd = -1;
      // Records that never left (peer died at shutdown) may still own
      // their gathered message bodies; same for a half-filled direct
      // receive.
      for (OutBuf& b : p.outbox) {
        if (b.msg != nullptr) {
          check::OnReclaim(b.msg);
          CmiFree(b.msg);
        }
      }
      p.outbox.clear();
      DropPartialRecord(p);
    }
    for (Pending& c : pending_) {
      if (c.fd >= 0) close(c.fd);
      c.fd = -1;
    }
    pending_.clear();
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      if (unix_mode_) unlink(UnixPath(mynode_).c_str());
    }
    if (wake_[0] >= 0) close(wake_[0]);
    if (wake_[1] >= 0) close(wake_[1]);
    wake_[0] = wake_[1] = -1;
  }

  Machine& machine_;
  int mynode_ = -1;
  bool unix_mode_ = false;
  int listen_fd_ = -1;
  int wake_[2] = {-1, -1};
  std::mutex mu_;  // outboxes + shutting_down_
  bool shutting_down_ = false;
  bool running_ = false;
  std::vector<Peer> peers_;      // indexed by node id; [mynode_] unused
  std::vector<Pending> pending_; // accepted, hello not yet seen
  std::vector<pollfd> pollfds_;  // comm-loop scratch, capacity reused
  std::vector<int> pollwho_;
  std::thread comm_;
};

}  // namespace

std::unique_ptr<Transport> MakeSocketEngine(Machine& m) {
  return std::make_unique<SocketEngine>(m);
}

}  // namespace converse::detail
