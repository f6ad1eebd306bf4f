#include "common/workspace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"

namespace tucker {

namespace {

// Smallest arena block: big enough that the tiny frames of the unblocked
// QR path never trigger a second allocation.
constexpr std::size_t kMinBlock = std::size_t{1} << 16;  // 64 KiB
constexpr std::size_t kAlign = 64;

// The arena local() returns instead of the thread's own, if any.
thread_local Workspace* t_redirect = nullptr;

}  // namespace

Workspace& Workspace::local() {
  static thread_local Workspace ws;
  return t_redirect ? *t_redirect : ws;
}

Workspace::ChunkScope::ChunkScope() : prev_(t_redirect) {
  static thread_local Workspace chunk_ws;
  t_redirect = &chunk_ws;
}

Workspace::ChunkScope::~ChunkScope() { t_redirect = prev_; }

void* Workspace::get_bytes(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  for (;;) {
    if (cur_block_ < blocks_.size()) {
      Block& b = blocks_[cur_block_];
      const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::uintptr_t p = (base + cur_off_ + kAlign - 1) & ~(kAlign - 1);
      if (p + bytes <= base + b.size) {
        cur_off_ = static_cast<std::size_t>(p + bytes - base);
        // High-water bookkeeping: bytes_in_use() walks the (logarithmically
        // few) blocks below the bump block, so this stays O(log reserved).
        const std::size_t used = bytes_in_use();
        if (used > high_water_) high_water_ = used;
        if (used > open_peak_) open_peak_ = used;
        return reinterpret_cast<void*>(p);
      }
      // This block is exhausted for the current frame; spill into the next
      // (existing or new) one. The skipped tail stays reserved and becomes
      // usable again once the frame rewinds.
      ++cur_block_;
      cur_off_ = 0;
      continue;
    }
    const std::size_t prev = blocks_.empty() ? 0 : blocks_.back().size;
    const std::size_t want =
        std::max({bytes + kAlign, kMinBlock, 2 * prev});
    blocks_.push_back(Block{std::make_unique<std::byte[]>(want), want});
    cur_block_ = blocks_.size() - 1;
    cur_off_ = 0;
  }
}

// Overwrites everything handed out after the (block, off) mark with the
// poison byte. Debug builds only: a `get` pointer held across its Frame's
// close (or across a serving-request reset()) then reads 0xDB garbage and
// fails loudly instead of seeing stale-but-plausible values.
void Workspace::poison_released(std::size_t block, std::size_t off) {
  if (blocks_.empty()) return;
  const std::size_t last = std::min(cur_block_, blocks_.size() - 1);
  for (std::size_t b = block; b <= last; ++b) {
    const std::size_t lo = (b == block) ? off : 0;
    const std::size_t hi = (b == cur_block_) ? cur_off_ : blocks_[b].size;
    if (hi > lo) std::memset(blocks_[b].data.get() + lo, kPoisonByte, hi - lo);
  }
}

void Workspace::rewind(std::size_t block, std::size_t off) {
#ifndef NDEBUG
  poison_released(block, off);
#endif
  cur_block_ = block;
  cur_off_ = off;
}

void Workspace::reset() {
  TUCKER_CHECK(frame_depth_ == 0,
               "Workspace::reset() with a Frame still open");
  rewind(0, 0);
}

void Workspace::record_region(std::string_view name, std::size_t peak) {
  auto it = region_marks_.find(name);
  if (it == region_marks_.end())
    region_marks_.emplace(std::string(name), peak);
  else if (peak > it->second)
    it->second = peak;
}

std::size_t Workspace::region_high_water(std::string_view name) const {
  auto it = region_marks_.find(name);
  return it == region_marks_.end() ? 0 : it->second;
}

void Workspace::clear_region_marks() { region_marks_.clear(); }

void Workspace::release() {
  TUCKER_CHECK(frame_depth_ == 0,
               "Workspace::release() with a Frame still open");
  for (auto& [key, entry] : stash_) entry.destroy(entry.ptr);
  stash_.clear();
  blocks_.clear();
  cur_block_ = 0;
  cur_off_ = 0;
  high_water_ = 0;
  open_peak_ = 0;
  region_marks_.clear();
}

}  // namespace tucker
