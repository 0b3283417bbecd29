// BufferPool: fixed-size frame cache over a DiskManager with LRU eviction
// and pin counting. All higher storage layers (RecordFile, SlottedFile,
// BPlusTree) access pages exclusively through PageGuard handles obtained
// here, mirroring how a native XML engine such as Timber manages its
// buffer pool (the paper configured a 256 MB pool; ours is configurable).

#ifndef COLORFUL_XML_STORAGE_BUFFER_POOL_H_
#define COLORFUL_XML_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace mct {

class BufferPool;

/// RAII pin on one buffered page. Movable, not copyable. Writing through
/// MutableData() marks the frame dirty; it is written back on eviction or
/// FlushAll().
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t frame, PageId page_id)
      : pool_(pool), frame_(frame), page_id_(page_id) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const char* Data() const;
  /// Mutable view of the page; marks it dirty.
  char* MutableData();

  /// Drops the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

class BufferPool {
 public:
  /// `capacity_pages` frames over `disk` (not owned). `label` names this
  /// pool's metric instruments: empty (the default) keeps the legacy
  /// process-wide "mct.buffer_pool.*" names, a non-empty label registers
  /// "mct.buffer_pool.<label>.*" so co-resident pools (side-by-side
  /// databases) report hits/misses/evictions separately instead of folding
  /// into one process-global stream.
  BufferPool(DiskManager* disk, uint32_t capacity_pages,
             const std::string& label = std::string());

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh page on disk and pins it.
  Result<PageGuard> NewPage();

  /// Writes back every dirty frame.
  Status FlushAll();

  /// Drops all unpinned frames (after FlushAll this simulates a cold cache).
  Status EvictAll();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint32_t capacity() const { return static_cast<uint32_t>(frames_.size()); }
  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    std::unique_ptr<char[]> data;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    // Position in lru_ when pin_count == 0.
    std::list<uint32_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(uint32_t frame, PageId page_id);
  void MarkDirty(uint32_t frame) { frames_[frame].dirty = true; }
  const char* FrameData(uint32_t frame) const {
    return frames_[frame].data.get();
  }
  char* FrameMutableData(uint32_t frame) {
    frames_[frame].dirty = true;
    return frames_[frame].data.get();
  }

  /// Finds a frame to hold a new page: a free frame, or evicts the LRU
  /// unpinned frame (flushing it when dirty).
  Result<uint32_t> GetVictimFrame();

  DiskManager* disk_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  std::list<uint32_t> lru_;  // front = most recently used
  std::unordered_map<PageId, uint32_t> page_table_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  // Metric instruments (common/metrics.h), looked up once at construction
  // and bumped alongside the per-pool counters above. Labeled pools get
  // their own "mct.buffer_pool.<label>.*" instruments, so eviction stats
  // stay attributable per pool instead of merging process-globally.
  Counter* m_hits_;
  Counter* m_misses_;
  Counter* m_evictions_;
};

}  // namespace mct

#endif  // COLORFUL_XML_STORAGE_BUFFER_POOL_H_
