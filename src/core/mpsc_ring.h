// Bounded lock-free delivery rings — the cross-PE delivery fast path.
//
// SpscRing: one producer, one consumer.  Every regular (data) lane is one
// of these per producer -> consumer pair (see DataLane in pe_state.h), so
// senders into one PE never write a shared index: a push is a plain cell
// store plus one seq_cst tail store, a pop is a plain cell load plus one
// release head store.  Each side caches the other's index and re-reads it
// only when its cache says full (producer) or empty (consumer), so in
// steady state a push touches no line the consumer writes and a pop
// touches no line the producer writes, apart from the cells themselves.
//
// MpscRing: Vyukov's bounded multi-producer queue specialised to one
// consumer, kept for the rarely used immediate lane: every cell carries a
// sequence word that encodes whose turn the cell is on, so a push is one
// tail CAS plus one release store.  One ring per PE means one probe per
// poll for a lane that is almost always empty.
//
// Concurrency contract (both rings):
//  * TryPush may be called only from the ring's producer(s): the one
//    producer thread of an SpscRing, any thread for an MpscRing.
//  * TryPop / HasItems may be called only from the owning consumer (the
//    receiving PE's thread, or the machine teardown path after all PE
//    threads have joined).
//
// The tail publish (SpscRing's tail store, MpscRing's tail CAS) is seq_cst
// on purpose: it is one half of the Dekker pair with the consumer's
// `parked` flag (see WaitForNet in machine.cpp) — the producer's publish
// and the consumer's park announcement must be globally ordered so that
// either the producer sees `parked` and notifies, or the consumer sees the
// new tail and never sleeps.  HasItems' tail load is seq_cst for the same
// reason.
//
// MpscRing only: when a producer has claimed a cell but not yet published
// it (the two instructions between the CAS and the release store), the
// consumer can observe tail > head with an unpublished head cell.  TryPop
// distinguishes this from "empty" via the tail and briefly yields until
// the publish lands; the wait is bounded by the producer being between two
// adjacent instructions (plus scheduling, on oversubscribed hosts).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

namespace converse::detail {

/// Smallest power of two >= `capacity`, minimum 4.
inline std::size_t RingSlots(std::size_t capacity) {
  std::size_t cap = 4;
  while (cap < capacity) cap <<= 1;
  return cap;
}

class SpscRing {
 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Allocate the cell array.  `capacity` is rounded up to a power of two
  /// (minimum 4).  Must be called before any push/pop.
  void Init(std::size_t capacity) {
    const std::size_t cap = RingSlots(capacity);
    mask_ = cap - 1;
    cells_ = std::make_unique<void*[]>(cap);
    tail_.store(0, std::memory_order_relaxed);
    head_cache_ = 0;
    head_.store(0, std::memory_order_relaxed);
    tail_cache_ = 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side: false when the ring is full (caller takes the overflow
  /// slow path).
  bool TryPush(void* msg) {
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    if (pos - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (pos - head_cache_ > mask_) return false;
    }
    cells_[pos & mask_] = msg;
    tail_.store(pos + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Consumer side: next message, or nullptr when the ring is empty.
  void* TryPop() {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    if (pos == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (pos == tail_cache_) return nullptr;
    }
    void* msg = cells_[pos & mask_];
    head_.store(pos + 1, std::memory_order_release);
    return msg;
  }

  /// Consumer side: true when at least one message is published.
  bool HasItems() const {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    return pos != tail_cache_ ||
           tail_.load(std::memory_order_seq_cst) != pos;
  }

 private:
  // Read-only after Init.
  std::unique_ptr<void*[]> cells_;
  std::size_t mask_ = 0;
  // Producer-written line: the tail it publishes and its cached head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-written line: the head it publishes and its cached tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

class MpscRing {
 public:
  MpscRing() = default;
  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Allocate the cell array.  `capacity` is rounded up to a power of two
  /// (minimum 4).  Must be called before any push/pop.
  void Init(std::size_t capacity) {
    const std::size_t cap = RingSlots(capacity);
    capacity_ = cap;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    head_ = 0;
    tail_.store(0, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  /// Producer side: false when the ring is full (caller takes the overflow
  /// slow path).
  bool TryPush(void* msg) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
          cell.msg = msg;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure refreshed `pos`; retry.
      } else if (dif < 0) {
        return false;  // a full lap behind: ring is full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side: next message, or nullptr when the ring is empty.
  void* TryPop() {
    const std::uint64_t pos = head_;
    Cell& cell = cells_[pos & mask_];
    std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) {
      if (tail_.load(std::memory_order_seq_cst) <= pos) return nullptr;
      // Claimed but not yet published: the producer is between its CAS and
      // its release store.  Wait for the publish rather than skipping the
      // cell, so ring order (and per-sender FIFO) is preserved.
      do {
        std::this_thread::yield();
        seq = cell.seq.load(std::memory_order_acquire);
      } while (seq != pos + 1);
    }
    void* msg = cell.msg;
    cell.seq.store(pos + capacity_, std::memory_order_release);
    head_ = pos + 1;
    return msg;
  }

  /// Consumer side: true when at least one cell has been claimed (it may
  /// still be a publish-in-progress cell; TryPop will wait it out).
  bool HasItems() const {
    return tail_.load(std::memory_order_seq_cst) > head_;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    void* msg = nullptr;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  // Producers contend on tail_; head_ is consumer-private.  Keep them on
  // separate cache lines so pops never bounce the producers' line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::uint64_t head_ = 0;
};

}  // namespace converse::detail
