#pragma once
// tucker::Workspace -- grow-only scratch arena for the ST-HOSVD hot path.
//
// The truncation chain used to allocate a fresh Tensor per mode, a fresh
// pack tile per gemm panel, and a fresh compact-WY block per QR panel. All
// of that scratch now comes from a per-thread arena: a list of geometrically
// growing blocks that are never freed while the workspace lives, handed out
// by pointer bump with stack (frame) discipline. After a warm-up pass every
// request is served from already-reserved memory, so steady-state kernels
// perform zero heap allocations (tests/kernel_equivalence_test.cpp asserts
// this with a counting allocator).
//
// Ownership rules (see DESIGN.md Sec 8):
//  - `Workspace::local()` is thread-local. Pool worker threads each own one;
//    scratch obtained on one thread is never released by another. A caller
//    may hand memory from its own arena to worker lambdas (they only write
//    through the pointer), but workers request their *own* scratch from
//    their own `local()`. While a thread runs a chunk of a pool fanout,
//    `local()` is its second, chunk arena (ChunkScope), so the chunks a
//    submitting thread happens to claim never move its own arena's marks.
//  - `get<T>(n)` pointers are valid until the enclosing `Frame` is
//    destroyed. Frames nest like stack frames; kernels that call other
//    kernels simply open their own frame.
//  - `stash<V>(key)` returns a persistent named object (constructed on first
//    use, destroyed with the workspace) for state that must survive between
//    calls, e.g. the ping-pong tensors of the sthosvd truncation chain.
//    Slots are keyed by (name, type), so the same name used at two
//    precisions yields two slots.
//  - Long-lived owners (the serving workers) call `reset()` between
//    requests: it rewinds the bump pointers to empty while keeping every
//    reserved block, every stashed object, and the high-water marks, so a
//    warm arena stays warm across requests. In debug builds both `reset()`
//    and Frame destruction poison the released bytes (kPoisonByte) so a
//    pointer held across a request boundary fails loudly instead of
//    silently reading stale-but-plausible data.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <typeindex>
#include <utility>
#include <vector>

namespace tucker {

class Workspace {
 public:
  Workspace() = default;
  ~Workspace() { release(); }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's workspace (thread-local, lazily constructed):
  /// its own arena, or its chunk arena inside a ChunkScope.
  static Workspace& local();

  /// RAII: while alive, local() on this thread returns the thread's chunk
  /// arena, a second thread-local Workspace. The thread pool opens one
  /// around every chunk of a fanout, on whichever thread runs it, so a
  /// submitting thread's own arena counts its own frames alone: its high
  /// water and reservation do not depend on which chunks it claims.
  class ChunkScope {
   public:
    ChunkScope();
    ~ChunkScope();
    ChunkScope(const ChunkScope&) = delete;
    ChunkScope& operator=(const ChunkScope&) = delete;

   private:
    Workspace* prev_;
  };

  /// RAII allocation mark: on destruction every `get` made since
  /// construction is released (the memory stays reserved for reuse).
  class Frame {
   public:
    explicit Frame(Workspace& ws)
        : ws_(&ws), block_(ws.cur_block_), off_(ws.cur_off_) {
      ++ws_->frame_depth_;
    }
    ~Frame() {
      --ws_->frame_depth_;
      ws_->rewind(block_, off_);
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace* ws_;
    std::size_t block_;
    std::size_t off_;
  };

  Frame frame() { return Frame(*this); }

  /// n elements of uninitialized scratch, 64-byte aligned, valid until the
  /// innermost enclosing Frame closes. Returns nullptr for n == 0.
  template <class T>
  T* get(std::size_t n) {
    return static_cast<T*>(get_bytes(n * sizeof(T)));
  }

  /// Persistent named object: default-constructed on first use, then the
  /// same instance forever (until release()). Keyed by (key, typeid(V)).
  template <class V>
  V& stash(std::string_view key) {
    const StashProbe probe{std::type_index(typeid(V)), key};
    auto it = stash_.find(probe);
    if (it == stash_.end()) {
      it = stash_
               .emplace(StashKey{probe.first, std::string(key)},
                        Entry{new V(),
                              [](void* p) { delete static_cast<V*>(p); }})
               .first;
    }
    return *static_cast<V*>(it->second.ptr);
  }

  /// Total bytes reserved across all arena blocks.
  std::size_t bytes_reserved() const {
    std::size_t s = 0;
    for (const auto& b : blocks_) s += b.size;
    return s;
  }

  /// Bytes currently handed out: full blocks below the bump block plus the
  /// bump offset. Tails skipped when a frame spills into the next block
  /// count as in use -- they are unusable until the frame rewinds, so they
  /// belong in the footprint.
  std::size_t bytes_in_use() const {
    std::size_t s = 0;
    for (std::size_t b = 0; b < cur_block_ && b < blocks_.size(); ++b)
      s += blocks_[b].size;
    return s + cur_off_;
  }

  /// Largest bytes_in_use() observed since construction (or the last
  /// reset_high_water()). This is what makes "RSS stays O(slab)" a testable
  /// claim for the out-of-core drivers instead of an eyeballed one.
  std::size_t high_water() const { return high_water_; }
  void reset_high_water() { high_water_ = bytes_in_use(); }

  /// RAII region for per-phase peak attribution: while open, every get
  /// updates the region's own peak. Regions nest (an inner region's peak
  /// also counts toward the enclosing one) and repeat (the recorded mark is
  /// the max over all visits under the same name).
  class WaterRegion {
   public:
    WaterRegion(Workspace& ws, std::string_view name)
        : ws_(&ws), name_(name), saved_(ws.open_peak_) {
      ws_->open_peak_ = ws_->bytes_in_use();
    }
    ~WaterRegion() {
      const std::size_t peak = ws_->open_peak_;
      ws_->record_region(name_, peak);
      ws_->open_peak_ = saved_ > peak ? saved_ : peak;
    }
    WaterRegion(const WaterRegion&) = delete;
    WaterRegion& operator=(const WaterRegion&) = delete;

   private:
    Workspace* ws_;
    std::string_view name_;
    std::size_t saved_;
  };

  /// Peak bytes_in_use() observed inside regions opened under `name`
  /// (0 if the name was never opened).
  std::size_t region_high_water(std::string_view name) const;

  /// Forgets all recorded region marks (the global high_water() survives).
  void clear_region_marks();

  /// Rewinds the bump pointers to empty without freeing anything: blocks
  /// stay reserved, stashed objects stay alive, and high_water() keeps its
  /// mark. This is the between-requests hook for long-lived owners (the
  /// serving workers): after a warm-up request the arena serves every later
  /// request without touching the heap. Only valid with no Frame open. In
  /// debug builds the released bytes are poisoned (kPoisonByte).
  void reset();

  /// Frees all arena blocks and destroys every stashed object. Only valid
  /// when no Frame is open; meant for tests and teardown.
  void release();

  /// Fill value written over released scratch in debug builds (by Frame
  /// destruction and reset()). Exposed so tests can assert the poisoning.
  static constexpr unsigned char kPoisonByte = 0xDB;

 private:
  // Heterogeneous (type, name) key so one name can back several precisions;
  // the probe form avoids building a std::string on the steady-state path.
  using StashKey = std::pair<std::type_index, std::string>;
  using StashProbe = std::pair<std::type_index, std::string_view>;
  struct StashKeyLess {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      if (a.first != b.first) return a.first < b.first;
      return std::string_view(a.second) < std::string_view(b.second);
    }
  };
  struct Entry {
    void* ptr;
    void (*destroy)(void*);
  };
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };

  void* get_bytes(std::size_t bytes);
  void record_region(std::string_view name, std::size_t peak);
  // Frame-close path: poisons (debug) then restores the bump pointers.
  void rewind(std::size_t block, std::size_t off);
  void poison_released(std::size_t block, std::size_t off);

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;  // block the next get bumps into
  std::size_t cur_off_ = 0;    // byte offset within that block
  std::size_t frame_depth_ = 0;  // open Frames (guards reset()/release())
  std::size_t high_water_ = 0;  // max bytes_in_use() ever observed
  std::size_t open_peak_ = 0;   // running peak of the innermost WaterRegion
  std::map<StashKey, Entry, StashKeyLess> stash_;
  std::map<std::string, std::size_t, std::less<>> region_marks_;
};

}  // namespace tucker
