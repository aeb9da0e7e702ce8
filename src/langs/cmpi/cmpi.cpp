#include "converse/langs/cmpi.h"

#include <cassert>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "converse/cmm.h"
#include "converse/collectives.h"
#include "converse/csd.h"
#include "converse/cth.h"
#include "converse/detail/module.h"
#include "core/pe_state.h"

namespace converse::mpi {

struct Request {
  void* buf = nullptr;
  std::size_t maxlen = 0;
  int source = kAnySource;
  int tag = kAnyTag;
  Comm comm = kCommWorld;
  bool done = false;
  Status status;
  CthThread* waiter = nullptr;  // thread blocked in Wait()
};

namespace {

constexpr int kBcastTag = -2;  // internal tag space is negative

struct MpiWire {
  std::int32_t comm;
  std::int32_t tag;
  std::int32_t source_rank;
  std::uint32_t len;
  std::uint64_t seq;  // per (comm, source->dest) sequence number
  // `len` payload bytes follow
};

/// A message accepted into matching order but not yet received.
struct Stored {
  int tag;
  int source;
  std::vector<char> data;
};

struct MpiState {
  int handler = -1;
  int next_comm = 1;  // 0 is kCommWorld
  // Pairwise FIFO bookkeeping, keyed by (comm, source_rank).
  std::map<std::pair<int, int>, std::uint64_t> send_seq;
  std::map<std::pair<int, int>, std::uint64_t> recv_expected;
  std::map<std::pair<int, int>, std::map<std::uint64_t, Stored>> early;
  // Accepted-but-unreceived messages ("unexpected queue"), per comm, in
  // matching order.
  std::map<int, std::deque<Stored>> mailbox;
  // Posted receives (IRecv) in posting order.
  std::vector<Request*> posted;
};

int ModuleId();

MpiState& St() {
  return *static_cast<MpiState*>(detail::ModuleState(ModuleId()));
}

bool Matches(int want_src, int want_tag, int have_src, int have_tag) {
  return (want_src == kAnySource || want_src == have_src) &&
         (want_tag == kAnyTag || want_tag == have_tag);
}

void CompleteRequest(Request* req, const Stored& s) {
  const std::size_t n = s.data.size() < req->maxlen ? s.data.size()
                                                    : req->maxlen;
  if (n > 0) std::memcpy(req->buf, s.data.data(), n);
  req->status = Status{s.source, s.tag, static_cast<int>(s.data.size())};
  req->done = true;
  if (req->waiter != nullptr) {
    CthThread* t = req->waiter;
    req->waiter = nullptr;
    CthAwaken(t);
  }
}

/// A message has reached its position in pairwise-FIFO order: hand it to
/// a posted receive or park it in the mailbox.
void Accept(MpiState& st, int comm, Stored s) {
  for (auto it = st.posted.begin(); it != st.posted.end(); ++it) {
    Request* req = *it;
    if (req->comm == comm && !req->done &&
        Matches(req->source, req->tag, s.source, s.tag)) {
      st.posted.erase(it);
      CompleteRequest(req, s);
      return;
    }
  }
  st.mailbox[comm].push_back(std::move(s));
}

/// Network arrival: enforce per-(comm,source) delivery order, then accept
/// (draining any stashed successors).
void ProcessWire(MpiState& st, const MpiWire* wire) {
  const auto key = std::make_pair(wire->comm, wire->source_rank);
  Stored s;
  s.tag = wire->tag;
  s.source = wire->source_rank;
  const char* data = reinterpret_cast<const char*>(wire + 1);
  s.data.assign(data, data + wire->len);

  std::uint64_t& expected = st.recv_expected[key];
  if (wire->seq != expected) {
    // Out-of-order arrival (possible under a NetModel, which prices sizes
    // differently):
    // stash until its predecessors land — the "maintaining delivery
    // sequence" overhead the paper talks about.
    assert(wire->seq > expected && "duplicate cmpi sequence number");
    st.early[key].emplace(wire->seq, std::move(s));
    return;
  }
  ++expected;
  Accept(st, wire->comm, std::move(s));
  // Drain stashed successors that are now in order.
  auto eit = st.early.find(key);
  if (eit == st.early.end()) return;
  auto& stash = eit->second;
  while (!stash.empty() && stash.begin()->first == expected) {
    Stored next = std::move(stash.begin()->second);
    stash.erase(stash.begin());
    ++expected;
    Accept(st, key.first, std::move(next));
  }
  if (stash.empty()) st.early.erase(eit);
}

void MpiHandler(void* msg) {
  ProcessWire(St(), static_cast<const MpiWire*>(CmiMsgPayload(msg)));
}

int ModuleId() {
  static const int id = detail::RegisterModule(
      "cmpi",
      [](int module_id) {
        auto* st = new MpiState;
        st->handler = CmiRegisterHandler(&MpiHandler);
        detail::SetModuleState(module_id, st);
      },
      [](void* state) { delete static_cast<MpiState*>(state); });
  return id;
}

/// Try to pull a matching message from the mailbox (in order).
bool TryMailbox(MpiState& st, Comm comm, int source, int tag, void* buf,
                std::size_t maxlen, Status* status) {
  auto mit = st.mailbox.find(comm);
  if (mit == st.mailbox.end()) return false;
  auto& q = mit->second;
  for (auto it = q.begin(); it != q.end(); ++it) {
    if (Matches(source, tag, it->source, it->tag)) {
      const std::size_t n =
          it->data.size() < maxlen ? it->data.size() : maxlen;
      if (n > 0) std::memcpy(buf, it->data.data(), n);
      if (status != nullptr) {
        *status = Status{it->source, it->tag,
                         static_cast<int>(it->data.size())};
      }
      q.erase(it);
      return true;
    }
  }
  return false;
}

void SendInternal(const void* buf, std::size_t len, int dest_rank, int tag,
                  Comm comm) {
  MpiState& st = St();
  const int me = CmiMyPe();
  void* msg = CmiAlloc(sizeof(detail::MsgHeader) + sizeof(MpiWire) + len);
  CmiSetHandler(msg, st.handler);
  auto* wire = static_cast<MpiWire*>(CmiMsgPayload(msg));
  wire->comm = comm;
  wire->tag = tag;
  wire->source_rank = me;
  wire->len = static_cast<std::uint32_t>(len);
  wire->seq = st.send_seq[std::make_pair(comm, dest_rank)]++;
  if (len > 0) std::memcpy(wire + 1, buf, len);
  detail::SendOwned(dest_rank, msg);
}

}  // namespace

int CommRank(Comm) { return CmiMyPe(); }
int CommSize(Comm) { return CmiNumPes(); }

Comm CommDup(Comm) {
  // Same call order on all PEs => same id everywhere.
  return St().next_comm++;
}

void Send(const void* buf, std::size_t len, int dest_rank, int tag,
          Comm comm) {
  assert(tag >= 0 && "user tags must be non-negative (negative = internal)");
  SendInternal(buf, len, dest_rank, tag, comm);
}

void Recv(void* buf, std::size_t maxlen, int source_rank, int tag,
          Comm comm, Status* status) {
  MpiState& st = St();
  if (TryMailbox(st, comm, source_rank, tag, buf, maxlen, status)) return;

  if (!CthIsMain(CthSelf())) {
    Request req;
    req.buf = buf;
    req.maxlen = maxlen;
    req.source = source_rank;
    req.tag = tag;
    req.comm = comm;
    st.posted.push_back(&req);
    req.waiter = CthSelf();
    CthSuspend();
    assert(req.done);
    if (status != nullptr) *status = req.status;
    return;
  }

  // SPM regime: receive only cmpi traffic until a match materializes.
  for (;;) {
    void* msg = CmiGetSpecificMsg(st.handler);
    ProcessWire(st, static_cast<const MpiWire*>(CmiMsgPayload(msg)));
    if (TryMailbox(st, comm, source_rank, tag, buf, maxlen, status)) return;
  }
}

bool IProbe(int source_rank, int tag, Comm comm, Status* status) {
  MpiState& st = St();
  auto mit = st.mailbox.find(comm);
  if (mit == st.mailbox.end()) return false;
  for (const Stored& s : mit->second) {
    if (Matches(source_rank, tag, s.source, s.tag)) {
      if (status != nullptr) {
        *status = Status{s.source, s.tag, static_cast<int>(s.data.size())};
      }
      return true;
    }
  }
  return false;
}

Request* IRecv(void* buf, std::size_t maxlen, int source_rank, int tag,
               Comm comm) {
  MpiState& st = St();
  auto* req = new Request;
  req->buf = buf;
  req->maxlen = maxlen;
  req->source = source_rank;
  req->tag = tag;
  req->comm = comm;
  // A match may already be waiting.
  Status status;
  if (TryMailbox(st, comm, source_rank, tag, buf, maxlen, &status)) {
    req->status = status;
    req->done = true;
    return req;
  }
  st.posted.push_back(req);
  return req;
}

bool Test(Request* req, Status* status) {
  if (!req->done) return false;
  if (status != nullptr) *status = req->status;
  return true;
}

void Wait(Request* req, Status* status) {
  MpiState& st = St();
  if (!req->done) {
    if (!CthIsMain(CthSelf())) {
      req->waiter = CthSelf();
      CthSuspend();
      assert(req->done);
    } else {
      while (!req->done) {
        void* msg = CmiGetSpecificMsg(st.handler);
        ProcessWire(st, static_cast<const MpiWire*>(CmiMsgPayload(msg)));
      }
    }
  }
  if (status != nullptr) *status = req->status;
  delete req;
}

void Sendrecv(const void* sendbuf, std::size_t sendlen, int dest, int stag,
              void* recvbuf, std::size_t recvlen, int source, int rtag,
              Comm comm, Status* status) {
  // Sends are buffered (never block), so send-then-recv cannot deadlock.
  Send(sendbuf, sendlen, dest, stag, comm);
  Recv(recvbuf, recvlen, source, rtag, comm, status);
}

void Barrier(Comm) { CmiBarrierBlocking(); }

void Bcast(void* buf, std::size_t len, int root, Comm comm) {
  const int me = CmiMyPe();
  if (me == root) {
    for (int r = 0; r < CmiNumPes(); ++r) {
      if (r != root) SendInternal(buf, len, r, kBcastTag, comm);
    }
    return;
  }
  MpiState& st = St();
  if (TryMailbox(st, comm, root, kBcastTag, buf, len, nullptr)) return;
  for (;;) {
    void* msg = CmiGetSpecificMsg(st.handler);
    ProcessWire(st, static_cast<const MpiWire*>(CmiMsgPayload(msg)));
    if (TryMailbox(st, comm, root, kBcastTag, buf, len, nullptr)) return;
  }
}

namespace {
int ReduceOp(Op op, bool f64) {
  switch (op) {
    case Op::kSum: return f64 ? CmiReducerSumF64() : CmiReducerSumI64();
    case Op::kMin: return f64 ? CmiReducerMinF64() : CmiReducerMinI64();
    case Op::kMax: return f64 ? CmiReducerMaxF64() : CmiReducerMaxI64();
  }
  return -1;
}
}  // namespace

void AllreduceF64(const double* in, double* out, std::size_t n, Op op,
                  Comm) {
  std::memcpy(out, in, n * sizeof(double));
  CmiAllReduceBlocking(out, n * sizeof(double), ReduceOp(op, true));
}

void AllreduceI64(const std::int64_t* in, std::int64_t* out, std::size_t n,
                  Op op, Comm) {
  std::memcpy(out, in, n * sizeof(std::int64_t));
  CmiAllReduceBlocking(out, n * sizeof(std::int64_t), ReduceOp(op, false));
}

std::size_t UnexpectedCount() {
  std::size_t n = 0;
  for (const auto& [comm, q] : St().mailbox) n += q.size();
  return n;
}

}  // namespace converse::mpi

// Registration entry point used by the header anchor.
int converse::detail::MpiModuleRegister() {
  return converse::mpi::ModuleId();
}
