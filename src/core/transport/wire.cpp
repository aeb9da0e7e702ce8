#include "core/transport/wire.h"

#include <cstring>

namespace converse::detail {

std::uint16_t WireCheck(const WireRec& rec) {
  // xor-fold the six 16-bit words before `check`; seed so an all-zero
  // header (freshly cleared memory) does not verify.
  std::uint16_t x = 0xC0DE;
  x ^= static_cast<std::uint16_t>(rec.magic & 0xFFFFu);
  x ^= static_cast<std::uint16_t>(rec.magic >> 16);
  x ^= static_cast<std::uint16_t>(rec.length & 0xFFFFu);
  x ^= static_cast<std::uint16_t>(rec.length >> 16);
  x ^= rec.dest_pe;
  x ^= rec.src_node;
  x ^= static_cast<std::uint16_t>(rec.kind | (rec.flags << 8));
  return x;
}

void WireEncode(const WireRec& rec, unsigned char out[kWireRecBytes]) {
  WireRec r = rec;
  r.magic = kWireMagic;
  r.check = WireCheck(r);
  std::memcpy(out, &r, kWireRecBytes);
}

bool WireDecode(const unsigned char in[kWireRecBytes], WireRec* rec) {
  std::memcpy(rec, in, kWireRecBytes);
  if (rec->magic != kWireMagic) return false;
  if (rec->check != WireCheck(*rec)) return false;
  if (rec->kind < kWireMessage || rec->kind > kWireGoodbye) return false;
  return true;
}

void WireParser::Append(const void* data, std::size_t n) {
  // Compact before growing: keeps the buffer bounded by one read chunk
  // plus one partial record instead of the whole connection history.
  if (off_ > 0 && off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  } else if (off_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(off_));
    off_ = 0;
  }
  const unsigned char* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

std::size_t WireParser::missing() const {
  if (pending() < kWireRecBytes) {
    return pending() == 0 ? 0 : kWireRecBytes - pending();
  }
  WireRec rec;
  std::memcpy(&rec, buf_.data() + off_, kWireRecBytes);
  const std::size_t want = kWireRecBytes + rec.length;
  return want > pending() ? want - pending() : 0;
}

int WireParser::Next(WireRec* rec, const unsigned char** body) {
  if (pending() < kWireRecBytes) return 0;
  if (!WireDecode(buf_.data() + off_, rec)) return -1;
  if (pending() < kWireRecBytes + rec->length) return 0;
  *body = buf_.data() + off_ + kWireRecBytes;
  off_ += kWireRecBytes + rec->length;
  return 1;
}

}  // namespace converse::detail
