#include "storage/buffer_pool.h"

#include <cstring>

#include "common/strings.h"

namespace mct {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

const char* PageGuard::Data() const { return pool_->FrameData(frame_); }

char* PageGuard::MutableData() { return pool_->FrameMutableData(frame_); }

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, page_id_);
    pool_ = nullptr;
  }
}

namespace {

// Labeled pools register "mct.buffer_pool.<label>.<stat>"; the unlabeled
// default keeps the legacy process-wide "mct.buffer_pool.<stat>" names.
std::string PoolMetricName(const std::string& label, const char* stat) {
  std::string name = "mct.buffer_pool.";
  if (!label.empty()) {
    name += label;
    name += '.';
  }
  name += stat;
  return name;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, uint32_t capacity_pages,
                       const std::string& label)
    : disk_(disk),
      m_hits_(MetricsRegistry::Global().counter(PoolMetricName(label, "hits"))),
      m_misses_(
          MetricsRegistry::Global().counter(PoolMetricName(label, "misses"))),
      m_evictions_(MetricsRegistry::Global().counter(
          PoolMetricName(label, "evictions"))) {
  // Frame buffers are allocated on first use (GetVictimFrame): a pool
  // sized for the worst case costs only the pages it ever holds.
  frames_.resize(capacity_pages);
  free_frames_.reserve(capacity_pages);
  for (uint32_t i = 0; i < capacity_pages; ++i) {
    free_frames_.push_back(capacity_pages - 1 - i);
  }
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++hits_;
    m_hits_->Inc();
    Frame& f = frames_[it->second];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pin_count;
    return PageGuard(this, it->second, id);
  }
  ++misses_;
  m_misses_->Inc();
  MCT_ASSIGN_OR_RETURN(uint32_t frame, GetVictimFrame());
  Frame& f = frames_[frame];
  MCT_RETURN_IF_ERROR(disk_->ReadPage(id, f.data.get()));
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  page_table_[id] = frame;
  return PageGuard(this, frame, id);
}

Result<PageGuard> BufferPool::NewPage() {
  PageId id = disk_->AllocatePage();
  MCT_ASSIGN_OR_RETURN(uint32_t frame, GetVictimFrame());
  Frame& f = frames_[frame];
  std::memset(f.data.get(), 0, kPageSize);
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  page_table_[id] = frame;
  return PageGuard(this, frame, id);
}

Status BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty) {
      MCT_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.get()));
      f.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  MCT_RETURN_IF_ERROR(FlushAll());
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.page_id == kInvalidPageId || f.pin_count > 0) continue;
    page_table_.erase(f.page_id);
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.page_id = kInvalidPageId;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

void BufferPool::Unpin(uint32_t frame, PageId page_id) {
  Frame& f = frames_[frame];
  // The guard outlived an eviction cycle only if pins were mismanaged;
  // pin_count > 0 is an invariant here.
  if (f.page_id != page_id || f.pin_count == 0) return;
  if (--f.pin_count == 0) {
    lru_.push_front(frame);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

Result<uint32_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    uint32_t frame = free_frames_.back();
    free_frames_.pop_back();
    Frame& f = frames_[frame];
    if (f.data == nullptr) {
      // Left uninitialized: NewPage zeroes the frame, FetchPage fills it.
      f.data = std::make_unique_for_overwrite<char[]>(kPageSize);
    }
    return frame;
  }
  if (lru_.empty()) {
    return Status::Internal(
        StrFormat("buffer pool exhausted: all %zu frames pinned",
                  frames_.size()));
  }
  uint32_t frame = lru_.back();
  lru_.pop_back();
  ++evictions_;
  m_evictions_->Inc();
  Frame& f = frames_[frame];
  f.in_lru = false;
  if (f.dirty) {
    MCT_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.get()));
    f.dirty = false;
  }
  page_table_.erase(f.page_id);
  f.page_id = kInvalidPageId;
  return frame;
}

}  // namespace mct
