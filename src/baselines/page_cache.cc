#include "src/baselines/page_cache.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/base/assert.h"
#include "src/base/extent.h"

namespace fractos {

PageCache::PageCache(EventLoop* loop, BlockDevice* backing)
    : PageCache(loop, backing, Params{}) {}

PageCache::PageCache(EventLoop* loop, BlockDevice* backing, Params params)
    : loop_(loop), backing_(backing), params_(params) {
  FRACTOS_CHECK(loop != nullptr && backing != nullptr);
}

void PageCache::touch(uint64_t page) {
  auto it = pages_.find(page);
  FRACTOS_DCHECK(it != pages_.end());
  lru_.erase(it->second.lru_pos);
  lru_.push_front(page);
  it->second.lru_pos = lru_.begin();
}

void PageCache::install_page(uint64_t page, std::vector<uint8_t> bytes) {
  auto it = pages_.find(page);
  if (it != pages_.end()) {
    it->second.bytes = std::move(bytes);
    touch(page);
    return;
  }
  lru_.push_front(page);
  pages_.emplace(page, Page{std::move(bytes), lru_.begin()});
  evict_if_needed();
}

void PageCache::evict_if_needed() {
  while (pages_.size() > params_.capacity_pages) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    pages_.erase(victim);
  }
}

std::vector<uint8_t> PageCache::gather(uint64_t off, uint64_t size) {
  std::vector<uint8_t> out(size);
  uint64_t pos = 0;
  while (pos < size) {
    const uint64_t abs = off + pos;
    const uint64_t page = abs / params_.page_bytes;
    const uint64_t in_page = abs % params_.page_bytes;
    const uint64_t n = std::min(size - pos, params_.page_bytes - in_page);
    const Page& p = pages_.at(page);
    std::copy_n(p.bytes.begin() + static_cast<ptrdiff_t>(in_page), n,
                out.begin() + static_cast<ptrdiff_t>(pos));
    touch(page);
    pos += n;
  }
  return out;
}

void PageCache::read(uint64_t off, uint64_t size, std::function<void(Result<Payload>)> done) {
  if (!extent_within(off, size, capacity())) {
    loop_->post([done = std::move(done)]() { done(ErrorCode::kOutOfRange); });
    return;
  }
  const uint64_t first = off / params_.page_bytes;
  const uint64_t last = (off + size - 1) / params_.page_bytes;
  bool all_cached = true;
  for (uint64_t p = first; p <= last; ++p) {
    if (!page_cached(p)) {
      all_cached = false;
      break;
    }
  }
  const bool sequential = off == last_read_end_;
  last_read_end_ = off + size;

  if (all_cached) {
    ++hits_;
    const uint64_t n_pages = last - first + 1;
    Payload data(gather(off, size));
    loop_->schedule_after(params_.hit_cost_per_page * static_cast<double>(n_pages),
                          [done = std::move(done), data = std::move(data)]() mutable {
                            done(std::move(data));
                          });
    return;
  }
  ++misses_;

  // Fetch the whole covering run in one backing I/O; extend by the read-ahead window when
  // the access pattern is sequential.
  uint64_t fetch_first = first;
  uint64_t fetch_last = last;
  if (sequential) {
    fetch_last =
        std::min(fetch_last + params_.readahead_pages,
                 (capacity() / params_.page_bytes) - 1);
    ++readahead_fetches_;
  }
  const uint64_t fetch_off = fetch_first * params_.page_bytes;
  const uint64_t fetch_size =
      std::min((fetch_last - fetch_first + 1) * params_.page_bytes, capacity() - fetch_off);
  backing_->read(
      fetch_off, fetch_size,
      [this, off, size, fetch_first, fetch_off, fetch_size,
       done = std::move(done)](Result<Payload> r) mutable {
        if (!r.ok()) {
          done(r.error());
          return;
        }
        const std::span<const uint8_t> bytes = r.value().bytes();
        for (uint64_t p = fetch_first; (p - fetch_first + 1) * params_.page_bytes <= fetch_size;
             ++p) {
          const uint64_t start = (p - fetch_first) * params_.page_bytes;
          install_page(p, std::vector<uint8_t>(
                              bytes.begin() + static_cast<ptrdiff_t>(start),
                              bytes.begin() + static_cast<ptrdiff_t>(start + params_.page_bytes)));
        }
        // Serve from the fetched run directly: a request larger than the cache capacity may
        // already have evicted its own head pages.
        const uint64_t start = off - fetch_off;
        done(Payload::copy_of(bytes.data() + start, size));
      });
}

void PageCache::write(uint64_t off, Payload data, std::function<void(Status)> done) {
  if (!extent_within(off, data.size(), capacity())) {
    loop_->post([done = std::move(done)]() { done(ErrorCode::kOutOfRange); });
    return;
  }
  // The cache absorbs the write: fully covered pages are installed, partially covered
  // cached pages are updated in place (partial uncached pages are simply not cached —
  // a later read re-fetches them). Device durability comes from an asynchronous write-back
  // issued immediately; the caller completes at memcpy speed. This is the "absorbs writes"
  // behaviour of Fig. 10.
  const uint64_t page_bytes = params_.page_bytes;
  const std::span<const uint8_t> src = data.bytes();
  const uint64_t size = src.size();
  uint64_t pos = 0;
  while (pos < size) {
    const uint64_t abs = off + pos;
    const uint64_t page = abs / page_bytes;
    const uint64_t in_page = abs % page_bytes;
    const uint64_t n = std::min(size - pos, page_bytes - in_page);
    if (in_page == 0 && n == page_bytes) {
      install_page(page, std::vector<uint8_t>(src.begin() + static_cast<ptrdiff_t>(pos),
                                              src.begin() + static_cast<ptrdiff_t>(pos + n)));
    } else if (page_cached(page)) {
      Page& p = pages_.at(page);
      std::copy_n(src.begin() + static_cast<ptrdiff_t>(pos), n,
                  p.bytes.begin() + static_cast<ptrdiff_t>(in_page));
      touch(page);
    }
    pos += n;
  }
  backing_->write(off, std::move(data), [](Status) {});
  const uint64_t n_pages = (size + page_bytes - 1) / page_bytes;
  loop_->schedule_after(params_.hit_cost_per_page * static_cast<double>(n_pages),
                        [done = std::move(done)]() { done(ok_status()); });
}

}  // namespace fractos
