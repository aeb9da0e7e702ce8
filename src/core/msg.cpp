#include "converse/msg.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

#include "converse/check.h"
#include "converse/handlers.h"
#include "core/msg_pool.h"
#include "core/stream.h"
#include "race/race_internal.h"

namespace converse {

void* CmiAlloc(std::size_t nbytes) {
  assert(nbytes >= sizeof(detail::MsgHeader) &&
         "CmiAlloc size must include CmiMsgHeaderSizeBytes()");
  void* msg = detail::MsgPoolAlloc(nbytes);
  auto* h = detail::Header(msg);
  h->handler = 0xffffffffu;  // invalid until CmiSetHandler
  h->total_size = static_cast<std::uint32_t>(nbytes);
  h->int_prio = 0;
  h->source_pe = 0;
  h->queueing = static_cast<std::uint8_t>(Queueing::kFifo);
  h->flags = detail::MsgPoolIsPooled(msg)
                 ? static_cast<std::uint8_t>(detail::kMsgFlagPooled)
                 : static_cast<std::uint8_t>(detail::kMsgFlagNone);
  h->magic = detail::kMsgMagicAlive;
  h->seq = 0;
  h->reserved = 0;
  detail::check::OnAlloc(msg, nbytes);
  detail::race::OnAllocMsg(msg, nbytes);
  return msg;
}

void CmiFree(void* msg) {
  if (msg == nullptr) return;
  // Before the flags read: a second free of a block already handed back to
  // the heap must be reported, not read.
  detail::check::OnFreeProbe(msg);
  {
    const std::uint8_t flags = detail::Header(msg)->flags;
    if ((flags & detail::kMsgFlagShared) != 0) {
      // A view embedded in a shared-broadcast block: the same pointer is
      // live on several PEs at once, so ownership diagnostics and magic
      // flips would race — resolve the block and release one reference.
      detail::CstSbcastViewRelease(msg);
      return;
    }
    if ((flags & detail::kMsgFlagSbcast) != 0) {
      // The block itself (a lane entry, sim hold, or fault-drop reclaim):
      // every holder of the pointer accounts for exactly one reference.
      detail::CstSbcastBlockRelease(msg);
      return;
    }
  }
  detail::check::OnFree(msg);
  detail::race::OnFreeMsg(msg);
  auto* h = detail::Header(msg);
  assert(h->magic == detail::kMsgMagicAlive && "CmiFree: not a live message");
  h->magic = detail::kMsgMagicFreed;
  if ((h->flags & detail::kMsgFlagInFrame) != 0) {
    // A view into a received aggregation frame: there is no standalone
    // allocation to return, only the frame's reference count to release.
    detail::CstFrameViewRelease(msg);
    return;
  }
  detail::MsgPoolFree(msg);
}

void CmiInitMsgHeader(void* msg, std::size_t nbytes) {
  assert(msg != nullptr);
  assert(nbytes >= sizeof(detail::MsgHeader) &&
         "CmiInitMsgHeader size must include CmiMsgHeaderSizeBytes()");
  assert(reinterpret_cast<std::uintptr_t>(msg) % alignof(detail::MsgHeader) ==
             0 &&
         "CmiInitMsgHeader buffer must be MsgHeader-aligned");
  auto* h = detail::Header(msg);
  h->handler = 0xffffffffu;  // invalid until CmiSetHandler
  h->total_size = static_cast<std::uint32_t>(nbytes);
  h->int_prio = 0;
  h->source_pe = 0;
  h->queueing = static_cast<std::uint8_t>(Queueing::kFifo);
  h->flags = static_cast<std::uint8_t>(detail::kMsgFlagNone);
  h->magic = detail::kMsgMagicAlive;
  h->seq = 0;
  h->reserved = 0;
}

void* CmiMakeMessage(int handler, const void* payload,
                     std::size_t payload_len) {
  void* msg = CmiAlloc(sizeof(detail::MsgHeader) + payload_len);
  CmiSetHandler(msg, handler);
  if (payload != nullptr && payload_len > 0) {
    std::memcpy(CmiMsgPayload(msg), payload, payload_len);
  }
  return msg;
}

bool CmiMsgIsValid(const void* msg) {
  return msg != nullptr &&
         detail::Header(msg)->magic == detail::kMsgMagicAlive;
}

}  // namespace converse
