/// \file arena.h
/// \brief Per-solve bump allocator for flat solver scratch.
///
/// The hot decision-procedure loops (run-set propagation, the Parikh grammar
/// build, connectivity-cut scratch) need many short-lived flat arrays whose
/// lifetimes nest exactly like the call stack. SolveArena carves them out of
/// reusable blocks with a pointer bump and releases them wholesale when the
/// enclosing Frame unwinds — no per-array malloc/free, no destructor walks.
///
/// Lifetime model: each thread owns one arena (SolveArena::ThreadLocal());
/// a function that wants scratch opens a `SolveArena::Frame`, allocates
/// freely, and the frame's destructor rewinds the arena to its entry mark.
/// Frames nest; blocks are retained across frames, so steady-state solve
/// traffic allocates from warm memory.
///
/// Accounting: the arena itself never enforces a budget — enforcement stays
/// with the resident structures that charge ExecutionContext::ChargeMemory
/// directly. But when a solve attaches its governor with
/// ScopedArenaAccounting, every *new* block the arena reserves (plus the
/// blocks already warm at attach time) is charged to the context, so the
/// governor's MemoryHighWater and the per-phase gauges sampled by
/// ScopedPhase include solver scratch instead of undercounting it.
///
/// Concurrency contract (DESIGN.md §12): SolveArena is thread-COMPATIBLE,
/// not thread-safe — it takes no locks and has no atomics. Every arena is
/// thread-confined: ThreadLocal() hands each thread its own instance, and
/// pointers allocated from a frame must not outlive it or escape to another
/// thread (the deep lint arena-escape rule enforces the non-escape half).

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace fo2dt {

class ExecutionContext;

/// \brief Thread-local bump allocator with stack-discipline frames.
class SolveArena {
 public:
  SolveArena() = default;
  SolveArena(const SolveArena&) = delete;
  SolveArena& operator=(const SolveArena&) = delete;

  /// The calling thread's arena (created on first use, process lifetime).
  static SolveArena& ThreadLocal();

  /// \p bytes of storage aligned to \p align (a power of two no larger than
  /// alignof(std::max_align_t)). Never fails short of ::operator new failing.
  void* Allocate(size_t bytes, size_t align);

  /// A zero-initialized array of \p n trivially-destructible elements. The
  /// pointer is valid until the enclosing Frame unwinds.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is rewound, never destroyed");
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena arrays are raw storage");
    void* p = Allocate(n * sizeof(T), alignof(T));
    std::memset(p, 0, n * sizeof(T));
    return static_cast<T*>(p);
  }

  /// Live bytes handed out below the current frame stack.
  size_t used() const { return used_; }
  /// Peak of used() over the arena's lifetime.
  size_t high_water() const { return high_water_; }
  /// Total block bytes reserved from the system (>= high_water()).
  size_t reserved() const { return reserved_; }

  /// Charges future block reservations (and the already-reserved bytes, once,
  /// now) to \p exec under \p module. Null detaches. Prefer the RAII
  /// ScopedArenaAccounting over calling this directly.
  void AttachAccounting(const ExecutionContext* exec, const char* module);

  /// \brief Rewinds the arena to its construction-time mark on destruction.
  class Frame {
   public:
    explicit Frame(SolveArena& arena = ThreadLocal())
        : arena_(&arena),
          block_(arena.cur_block_),
          offset_(arena.cur_off_),
          used_(arena.used_) {}
    ~Frame() {
      arena_->cur_block_ = block_;
      arena_->cur_off_ = offset_;
      arena_->used_ = used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    SolveArena* arena_;
    size_t block_;
    size_t offset_;
    size_t used_;
  };

 private:
  friend class ScopedArenaAccounting;

  struct Block {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
  };

  void AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t cur_block_ = 0;  // index of the block being bumped (== blocks_.size()
                          // when empty)
  size_t cur_off_ = 0;
  size_t used_ = 0;
  size_t high_water_ = 0;
  size_t reserved_ = 0;

  const ExecutionContext* exec_ = nullptr;
  const char* module_ = nullptr;
};

/// \brief Attaches the thread-local arena to a solve's governor for the
/// scope's duration, restoring the previous attachment on exit.
class ScopedArenaAccounting {
 public:
  ScopedArenaAccounting(const ExecutionContext* exec, const char* module);
  ~ScopedArenaAccounting();
  ScopedArenaAccounting(const ScopedArenaAccounting&) = delete;
  ScopedArenaAccounting& operator=(const ScopedArenaAccounting&) = delete;

 private:
  const ExecutionContext* prev_exec_;
  const char* prev_module_;
};

}  // namespace fo2dt
