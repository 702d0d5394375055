#include "ffis/vfs/extent_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ffis/util/chunking.hpp"
#include "ffis/vfs/extent_arena.hpp"

namespace ffis::vfs {

namespace {

std::atomic<std::uint64_t> g_owner_tokens{1};

}  // namespace

std::uint64_t ExtentStore::next_owner_token() noexcept {
  return g_owner_tokens.fetch_add(1, std::memory_order_relaxed);
}

ExtentStore::ExtentStore(std::size_t chunk_size)
    : chunk_size_(chunk_size), owner_(next_owner_token()) {
  if (chunk_size_ == 0 || chunk_size_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ExtentStore chunk_size must be in [1, 2^32)");
  }
}

ExtentStore::ExtentStore(const ExtentStore& other)
    : chunk_size_(other.chunk_size_),
      size_(other.size_),
      chunks_(other.chunks_),
      owner_(next_owner_token()) {
  // Re-token the source too: arena chunks it owned are now published, and a
  // stale matching token would let it mutate them in place under the copy.
  other.owner_.store(next_owner_token(), std::memory_order_relaxed);
}

ExtentStore& ExtentStore::operator=(const ExtentStore& other) {
  if (this == &other) return *this;
  chunk_size_ = other.chunk_size_;
  size_ = other.size_;
  chunks_ = other.chunks_;
  owner_.store(next_owner_token(), std::memory_order_relaxed);
  other.owner_.store(next_owner_token(), std::memory_order_relaxed);
  return *this;
}

ExtentStore::ExtentStore(ExtentStore&& other) noexcept
    : chunk_size_(other.chunk_size_),
      size_(other.size_),
      chunks_(std::move(other.chunks_)),
      owner_(other.owner_.load(std::memory_order_relaxed)) {
  other.size_ = 0;  // moved-from: empty but valid; its token is now dead
}

ExtentStore& ExtentStore::operator=(ExtentStore&& other) noexcept {
  if (this == &other) return *this;
  chunk_size_ = other.chunk_size_;
  size_ = other.size_;
  chunks_ = std::move(other.chunks_);
  owner_.store(other.owner_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  other.size_ = 0;
  other.owner_.store(next_owner_token(), std::memory_order_relaxed);
  return *this;
}

ExtentStore::Chunk ExtentStore::allocate_chunk(std::size_t size, std::size_t capacity,
                                               FsStats& stats, ExtentArena* arena) const {
  Chunk c;
  if (arena != nullptr) {
    // Arena chunks are cut at full extent capacity up front: growth then
    // never reallocates, and the unreachable [size, capacity) scratch costs
    // only recycled slab space.
    ExtentArena::Allocation a = arena->allocate(chunk_size_, stats);
    c.keepalive = std::move(a.keepalive);
    c.data = a.data;
    c.capacity = static_cast<std::uint32_t>(chunk_size_);
    c.owner = owner_token();
  } else {
    auto buf = std::make_unique_for_overwrite<std::byte[]>(capacity);
    c.data = buf.get();
    c.keepalive = std::shared_ptr<const void>(
        std::shared_ptr<std::byte[]>(std::move(buf)), c.data);
    c.capacity = static_cast<std::uint32_t>(capacity);
    c.owner = 0;  // heap: per-chunk use_count decides sharing
  }
  c.size = static_cast<std::uint32_t>(size);
  return c;
}

ExtentStore::Chunk ExtentStore::detach_chunk(const Chunk& shared, std::size_t new_size,
                                             std::size_t write_begin, std::size_t write_end,
                                             FsStats& stats, ExtentArena* arena) const {
  Chunk c = allocate_chunk(new_size, new_size, stats, arena);
  std::byte* dst = const_cast<std::byte*>(c.data);
  const std::size_t stored = shared.size;
  // Fill [0, new_size) around the pending overwrite window: stored bytes are
  // preserved, unstored gaps are zeroed, the window itself is left for the
  // caller's memcpy.
  const std::size_t head = std::min({write_begin, stored, new_size});
  std::memcpy(dst, shared.data, head);
  if (write_begin > head) std::memset(dst + head, 0, std::min(write_begin, new_size) - head);
  std::size_t copied = head;
  if (new_size > write_end) {
    if (stored > write_end) {
      const std::size_t tail = std::min(stored, new_size) - write_end;
      std::memcpy(dst + write_end, shared.data + write_end, tail);
      copied += tail;
    }
    if (new_size > std::max(stored, write_end)) {
      const std::size_t from = std::max(stored, write_end);
      std::memset(dst + from, 0, new_size - from);
    }
  }
  ++stats.chunk_detaches;
  stats.cow_bytes_copied += copied;
  return c;
}

std::size_t ExtentStore::read(std::uint64_t offset, util::MutableByteSpan buf) const noexcept {
  if (offset >= size_ || buf.empty()) return 0;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(buf.size(), size_ - offset));
  util::for_each_chunk_slice(offset, n, chunk_size_, [&](const util::ChunkSlice& s) {
    std::byte* dst = buf.data() + s.buf_offset;
    const Chunk* chunk = s.index < chunks_.size() ? &chunks_[s.index] : nullptr;
    // The slice may extend past the chunk's stored length (short tail chunk
    // or hole); the remainder reads as zero.
    const std::size_t stored =
        chunk != nullptr && chunk->data != nullptr && s.begin < chunk->size
            ? std::min<std::size_t>(s.length, chunk->size - s.begin)
            : 0;
    if (stored > 0) std::memcpy(dst, chunk->data + s.begin, stored);
    if (stored < s.length) std::memset(dst + stored, 0, s.length - stored);
  });
  return n;
}

std::byte* ExtentStore::own_chunk(std::size_t index, std::size_t min_len,
                                  std::size_t write_begin, std::size_t write_end,
                                  FsStats& stats, ExtentArena* arena) {
  if (index >= chunks_.size()) chunks_.resize(index + 1);
  Chunk& slot = chunks_[index];
  if (slot.data == nullptr) {
    // Heap chunks size exactly (small files cost their bytes); arena chunks
    // take full capacity inside allocate_chunk.
    slot = allocate_chunk(min_len, min_len, stats, arena);
    std::byte* dst = const_cast<std::byte*>(slot.data);
    // Zero-fill around the caller's overwrite window.
    std::memset(dst, 0, std::min(write_begin, min_len));
    if (min_len > write_end) std::memset(dst + write_end, 0, min_len - write_end);
    ++stats.chunks_allocated;
  } else if (is_shared(slot)) {
    slot = detach_chunk(slot, std::max<std::size_t>(slot.size, min_len), write_begin,
                        write_end, stats, arena);
  } else if (slot.size < min_len) {
    if (slot.capacity >= min_len) {
      // In-place growth: expose only zeroed bytes (minus the overwrite
      // window, which the caller fills).
      std::byte* dst = const_cast<std::byte*>(slot.data);
      const std::size_t from = std::min<std::size_t>(slot.size, write_begin);
      std::memset(dst + from, 0, std::max<std::size_t>(write_begin, slot.size) - from);
      if (min_len > write_end) std::memset(dst + write_end, 0, min_len - write_end);
      slot.size = static_cast<std::uint32_t>(min_len);
    } else {
      // Heap chunk outgrew its buffer: geometric reallocation (capped at the
      // extent size) keeps sequential appends amortized O(1) per byte, like
      // the vector-backed representation this replaces.  Not a COW detach —
      // no stats charge, matching the old in-place resize.
      const std::size_t new_cap =
          std::max(min_len, std::min(chunk_size_, std::size_t{2} * slot.capacity));
      Chunk grown = allocate_chunk(min_len, new_cap, stats, arena);
      std::byte* dst = const_cast<std::byte*>(grown.data);
      std::memcpy(dst, slot.data, slot.size);
      const std::size_t from = std::max<std::size_t>(slot.size, write_end);
      if (slot.size < write_begin) std::memset(dst + slot.size, 0, write_begin - slot.size);
      if (min_len > from) std::memset(dst + from, 0, min_len - from);
      slot = std::move(grown);
    }
  }
  // The const_cast is sound: every chunk buffer is allocated above as
  // mutable memory and only becomes logically const while shared.
  return const_cast<std::byte*>(slot.data);
}

void ExtentStore::write(std::uint64_t offset, util::ByteSpan buf, FsStats& stats,
                        ExtentArena* arena) {
  if (buf.empty()) return;
  util::for_each_chunk_slice(offset, buf.size(), chunk_size_, [&](const util::ChunkSlice& s) {
    std::byte* chunk =
        own_chunk(s.index, s.begin + s.length, s.begin, s.begin + s.length, stats, arena);
    std::memcpy(chunk + s.begin, buf.data() + s.buf_offset, s.length);
  });
  size_ = std::max<std::uint64_t>(size_, offset + buf.size());
}

void ExtentStore::resize(std::uint64_t new_size, FsStats& stats, ExtentArena* arena) {
  if (new_size >= size_) {
    // Growth is a hole; holes read as zero, so no chunk work is needed.
    size_ = new_size;
    return;
  }
  if (new_size == 0) {
    clear();
    return;
  }
  const std::size_t keep = util::chunk_count(new_size, chunk_size_);
  if (chunks_.size() > keep) chunks_.resize(keep);
  // Trim the new last chunk so no stored byte survives past the logical end
  // (a later grow must read zeros there).
  const std::size_t tail = util::intra_chunk(new_size, chunk_size_);
  if (tail != 0 && keep == chunks_.size() && !chunks_.empty()) {
    Chunk& last = chunks_.back();
    if (last.data != nullptr && last.size > tail) {
      if (is_shared(last)) {
        last = detach_chunk(last, tail, tail, tail, stats, arena);
      } else {
        last.size = static_cast<std::uint32_t>(tail);  // in-place trim
      }
    }
  }
  size_ = new_size;
}

namespace {

/// memcmp probe widths while locating a mismatch, coarse to fine: whole
/// pages at full library-memcmp speed, then sub-blocks inside the page that
/// differs, then words, then bytes.
constexpr std::size_t kProbeBlocks[] = {4096, 256};
alignas(64) constexpr std::byte kZeroBlock[4096] = {};

std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Position (0..7, in address order) of the lowest-addressed nonzero byte of
/// a nonzero word, and of the highest-addressed one.
std::size_t first_set_byte(std::uint64_t x) noexcept {
  return static_cast<std::size_t>(std::endian::native == std::endian::little
                                       ? std::countr_zero(x)
                                       : std::countl_zero(x)) / 8;
}
std::size_t last_set_byte(std::uint64_t x) noexcept {
  return 7 - static_cast<std::size_t>(std::endian::native == std::endian::little
                                          ? std::countl_zero(x)
                                          : std::countr_zero(x)) / 8;
}

/// Offset of the first byte where a[0, n) and b[0, n) differ, or n.  With
/// kZero, b is all zeros (kZeroBlock stands in for it).
template <bool kZero>
std::size_t first_mismatch(const std::byte* a, const std::byte* b, std::size_t n) noexcept {
  const auto at = [b](std::size_t i) { return kZero ? kZeroBlock : b + i; };
  std::size_t i = 0;
  for (const std::size_t block : kProbeBlocks) {
    while (i + block <= n && std::memcmp(a + i, at(i), block) == 0) i += block;
  }
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t x = load_word(a + i) ^ load_word(at(i));
    if (x != 0) return i + first_set_byte(x);
  }
  for (; i < n; ++i) {
    if (a[i] != *at(i)) return i;
  }
  return n;
}

/// One past the last byte where a[0, n) and b[0, n) differ, or 0.
template <bool kZero>
std::size_t last_mismatch(const std::byte* a, const std::byte* b, std::size_t n) noexcept {
  const auto at = [b](std::size_t i) { return kZero ? kZeroBlock : b + i; };
  std::size_t i = n;
  for (const std::size_t block : kProbeBlocks) {
    while (i >= block && std::memcmp(a + i - block, at(i - block), block) == 0) i -= block;
  }
  for (; i >= 8; i -= 8) {
    const std::uint64_t x = load_word(a + i - 8) ^ load_word(at(i - 8));
    if (x != 0) return i - 8 + last_set_byte(x) + 1;
  }
  for (; i > 0; --i) {
    if (a[i - 1] != *at(i - 1)) return i;
  }
  return 0;
}

/// The span [first, last] of differing bytes between the first `len`
/// logical bytes of two (possibly hole) chunks, relative to the chunk start
/// and half-open; nullopt when they are equal.  Logical bytes are the stored
/// prefix, then zeros, so a hole equals an all-zero extent.  The forward
/// search doubles as the equality test: an equal chunk costs one pass, and
/// only a differing chunk pays for the backward search.
std::optional<std::pair<std::size_t, std::size_t>> differing_span(
    const std::byte* a, std::size_t a_size, const std::byte* b, std::size_t b_size,
    std::size_t len) noexcept {
  const std::size_t a_len = a != nullptr ? std::min(len, a_size) : 0;
  const std::size_t b_len = b != nullptr ? std::min(len, b_size) : 0;
  const std::size_t common = std::min(a_len, b_len);
  // The side storing more is compared against zeros over the excess; beyond
  // both stored lengths the two sides are zero by construction.
  const std::byte* longer = a_len > b_len ? a : b;
  const std::size_t excess = std::max(a_len, b_len) - common;

  std::size_t first = first_mismatch<false>(a, b, common);
  if (first == common) {
    if (excess == 0) return std::nullopt;
    first = common + first_mismatch<true>(longer + common, nullptr, excess);
    if (first == common + excess) return std::nullopt;
  }
  std::size_t last = excess > 0 ? last_mismatch<true>(longer + common, nullptr, excess) : 0;
  last = last > 0 ? common + last : last_mismatch<false>(a, b, common);
  return std::pair{first, last};
}

}  // namespace

std::vector<ByteRange> ExtentStore::diff(const ExtentStore& base) const {
  if (chunk_size_ != base.chunk_size_) {
    throw std::invalid_argument(
        "ExtentStore::diff: chunk sizes differ (" + std::to_string(chunk_size_) +
        " vs " + std::to_string(base.chunk_size_) +
        "); extent diffs require identical chunk geometry");
  }
  std::vector<ByteRange> out;
  const std::uint64_t common_size = std::min(size_, base.size_);
  const std::size_t common_chunks = util::chunk_count(common_size, chunk_size_);
  const auto append = [&](std::uint64_t begin, std::uint64_t end) {
    if (end <= begin) return;
    if (!out.empty() && out.back().end() >= begin) {
      out.back().length = end - out.back().offset;  // merge adjacent/overlapping
    } else {
      out.push_back(ByteRange{begin, end - begin});
    }
  };
  for (std::size_t i = 0; i < common_chunks; ++i) {
    const Chunk* a = i < chunks_.size() ? &chunks_[i] : nullptr;
    const Chunk* b = i < base.chunks_.size() ? &base.chunks_[i] : nullptr;
    const std::byte* a_data = a != nullptr ? a->data : nullptr;
    const std::byte* b_data = b != nullptr ? b->data : nullptr;
    // Payload-pointer identity proves equality without touching the bytes —
    // the fast path covering every extent a fork never wrote.
    if (a_data == b_data) continue;
    const std::uint64_t begin = util::chunk_begin(i, chunk_size_);
    const std::size_t logical =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk_size_, common_size - begin));
    if (const auto span = differing_span(a_data, a != nullptr ? a->size : 0, b_data,
                                         b != nullptr ? b->size : 0, logical)) {
      append(begin + span->first, begin + span->second);
    }
  }
  // A size change dirties the tail regardless of chunk content: the shorter
  // side simply has no bytes there.
  append(common_size, std::max(size_, base.size_));
  return out;
}

bool ExtentStore::shares_all_extents_with(const ExtentStore& base) const noexcept {
  if (size_ != base.size_ || chunk_size_ != base.chunk_size_) return false;
  const std::size_t n = std::max(chunks_.size(), base.chunks_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::byte* a = i < chunks_.size() ? chunks_[i].data : nullptr;
    const std::byte* b = i < base.chunks_.size() ? base.chunks_[i].data : nullptr;
    if (a != b) return false;
  }
  return true;
}

std::size_t ExtentStore::allocated_chunks() const noexcept {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) {
    if (c.data != nullptr) ++n;
  }
  return n;
}

std::uint64_t ExtentStore::stored_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  return total;
}

std::uint64_t ExtentStore::shared_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Chunk& c : chunks_) {
    if (c.data != nullptr && is_shared(c)) total += c.size;
  }
  return total;
}

}  // namespace ffis::vfs
