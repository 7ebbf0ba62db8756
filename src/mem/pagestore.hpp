// Per-node view of the shared address space: page frames with validity and
// write-protection bits, plus twin management. The coherence protocols own
// the policy; this class owns the mechanics.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/params.hpp"
#include "common/types.hpp"
#include "mem/diff.hpp"

namespace aecdsm::mem {

/// One node's copy of one shared page.
///
/// Pages start write-protected: the twin discipline requires every first
/// write of an epoch to trap, so protection is only dropped after a twin
/// exists (or the protocol knows modifications need no tracking).
struct PageFrame {
  std::vector<Word> data;                 ///< page contents (page_words entries)
  bool valid = false;                     ///< may the local processor access it?
  bool write_protected = true;            ///< trap the next write (twin discipline)
  std::unique_ptr<std::vector<Word>> twin;  ///< pristine copy for diffing

  bool has_twin() const { return twin != nullptr; }
};

class PageStore {
 public:
  PageStore(const SystemParams& params, std::size_t num_pages)
      : words_per_page_(params.words_per_page()), frames_(num_pages) {}

  std::size_t num_pages() const { return frames_.size(); }
  std::size_t words_per_page() const { return words_per_page_; }

  PageFrame& frame(PageId page) {
    AECDSM_CHECK_MSG(page < frames_.size(), "page " << page << " out of range");
    PageFrame& f = frames_[page];
    if (f.data.empty()) f.data.assign(words_per_page_, 0);
    return f;
  }

  const PageFrame& frame(PageId page) const {
    AECDSM_CHECK_MSG(page < frames_.size(), "page " << page << " out of range");
    return frames_[page];
  }

  std::span<Word> page_span(PageId page) {
    return std::span<Word>(frame(page).data);
  }

  /// Snapshot the current contents as the page's twin. Twin buffers are
  /// recycled through a per-store free list: the twin/diff discipline
  /// allocates and drops one page-sized buffer per write epoch, and the
  /// store is strictly node-local.
  void make_twin(PageId page) {
    PageFrame& f = frame(page);
    if (!twin_pool_.empty()) {
      f.twin = std::move(twin_pool_.back());
      twin_pool_.pop_back();
      *f.twin = f.data;
    } else {
      f.twin = std::make_unique<std::vector<Word>>(f.data);
    }
  }

  void drop_twin(PageId page) {
    PageFrame& f = frame(page);
    if (f.twin != nullptr && twin_pool_.size() < kTwinPoolCap) {
      twin_pool_.push_back(std::move(f.twin));
    }
    f.twin.reset();
  }

  /// Twin buffers parked in the free list (for tests).
  std::size_t pooled_twins() const { return twin_pool_.size(); }

  /// Diff current contents against the twin (which must exist).
  Diff diff_against_twin(PageId page) {
    PageFrame& f = frame(page);
    AECDSM_CHECK_MSG(f.has_twin(), "diff requested without twin, page " << page);
    return Diff::create(*f.twin, f.data);
  }

  /// Refresh the twin to match current contents (cheaper than re-allocating
  /// when the paper says twins are "reutilized").
  void refresh_twin(PageId page) {
    PageFrame& f = frame(page);
    AECDSM_CHECK(f.has_twin());
    *f.twin = f.data;
  }

 private:
  /// Peak simultaneous twins rarely exceeds the node's dirty set; a modest
  /// cap keeps idle memory bounded while capturing nearly all reuse.
  static constexpr std::size_t kTwinPoolCap = 64;

  std::size_t words_per_page_;
  std::vector<PageFrame> frames_;
  std::vector<std::unique_ptr<std::vector<Word>>> twin_pool_;
};

}  // namespace aecdsm::mem
