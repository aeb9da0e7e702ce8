// Wire format of the socket transport (DESIGN.md "Transport interface").
//
// Everything that crosses a socket is a sequence of length-prefixed
// *records*: a fixed 16-byte header followed by `length` body bytes.  The
// body of a kMessage/kImmediate record is the complete logical message
// image (MsgHeader + payload) exactly as the sender's PE stamped it — an
// aggregation frame (PR 4 carrier) travels as ONE record, so a burst of
// small messages costs one record header and one writev element, and the
// receiver re-dispatches it through the existing zero-copy frame-view
// machinery.  A kNodeCast record carries one stamped broadcast image per
// *remote node*; the receiving node fans it out locally (wrapper down the
// node-local spanning tree, or a shared refcounted block for large
// payloads) so a broadcast costs one wire copy per node, not per PE.
//
// Shared-broadcast blocks (kMsgFlagSbcast) are forwarded by pointer and
// therefore never cross the wire; the transport asserts that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace converse::detail {

inline constexpr std::uint32_t kWireMagic = 0x43767257u;  // "CvrW"
inline constexpr std::size_t kWireRecBytes = 16;

enum WireKind : std::uint8_t {
  kWireMessage = 1,    // body: message image for PE `dest_pe`'s regular lane
  kWireImmediate = 2,  // body: message image for the immediate lane
  kWireNodeCast = 3,   // body: broadcast image; receiver fans out in-node
  kWireHello = 4,      // empty body; dest_pe unused; src_node identifies peer
  kWireGoodbye = 5,    // empty body; orderly shutdown (EOF without one = died)
};

/// Fixed-size record header.  All fields little-endian host order (the
/// launcher only spawns ranks on one host family; see docs/PORTING.md).
struct WireRec {
  std::uint32_t magic = kWireMagic;
  std::uint32_t length = 0;  // body bytes following this header
  std::uint16_t dest_pe = 0;   // kMessage/kImmediate: global destination PE
  std::uint16_t src_node = 0;  // sending node
  std::uint8_t kind = 0;       // WireKind
  std::uint8_t flags = 0;      // reserved, zero
  std::uint16_t check = 0;     // xor-fold of the 12 bytes above
};
static_assert(sizeof(WireRec) == kWireRecBytes, "wire header must pack");

/// Header checksum: xor-fold of the six 16-bit words before `check`.
std::uint16_t WireCheck(const WireRec& rec);

/// Serialize `rec` (check filled in) into `out[0..16)`.
void WireEncode(const WireRec& rec, unsigned char out[kWireRecBytes]);

/// Parse a header from `in[0..16)`.  False when magic/checksum/kind are
/// wrong (corrupt or desynchronized stream).
bool WireDecode(const unsigned char in[kWireRecBytes], WireRec* rec);

/// Incremental record parser for a byte stream: feed arbitrary chunks with
/// Append, pull complete records with Next.  Body pointers returned by
/// Next stay valid until the following Append/Next call.
class WireParser {
 public:
  /// Buffer `n` more stream bytes.
  void Append(const void* data, std::size_t n);

  /// Extract the next complete record.  Returns 1 and fills (*rec, *body)
  /// when one is buffered; 0 when more bytes are needed; -1 when the
  /// stream is malformed (bad magic/checksum — there is no resynchronizing
  /// a corrupt framed stream, the connection must be dropped).
  int Next(WireRec* rec, const unsigned char** body);

  /// Bytes buffered but not yet returned by Next.
  std::size_t pending() const { return buf_.size() - off_; }

  /// Bytes still needed to complete the first buffered record (the rest
  /// of its header, then of its body); 0 when none is partly buffered.
  std::size_t missing() const;

  /// True when the buffered tail is a *partial* record — after EOF this
  /// means the peer died mid-record (the complete prefix was delivered;
  /// the truncated tail is discarded and, on reconnect, the sender
  /// retransmits that record from its start).
  bool mid_record() const { return pending() > 0; }

  /// Drop any partial tail (connection reset).
  void Reset() {
    buf_.clear();
    off_ = 0;
  }

 private:
  std::vector<unsigned char> buf_;
  std::size_t off_ = 0;
};

}  // namespace converse::detail
