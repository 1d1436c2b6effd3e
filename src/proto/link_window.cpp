#include "proto/link_window.hpp"

#include <bit>
#include <cstring>

#include "support/check.hpp"

namespace pods {
namespace proto {

void SendWindow::put(std::uint64_t seq, const std::uint8_t* rec,
                     std::size_t len) {
  PODS_CHECK_MSG(len > 0 && len <= UINT32_MAX,
                 "send-window image must be nonempty and under 4 GiB");
  if (head_ == slots_.size()) {
    slots_.clear();
    bytes_.clear();
    head_ = 0;
    base_ = seq;
  } else if (2 * head_ >= slots_.size()) {
    // Compaction: drop the slots below the low end and their bytes.
    const std::uint32_t cut = slots_[head_].off;
    slots_.erase(slots_.begin(),
                 slots_.begin() + static_cast<std::ptrdiff_t>(head_));
    for (Slot& s : slots_) s.off -= cut;
    bytes_.erase(bytes_.begin(), bytes_.begin() + cut);
    head_ = 0;
  }
  PODS_CHECK_MSG(seq == base_ + (slots_.size() - head_),
                 "send-window images must be stored in link-seq order");
  slots_.push_back(Slot{static_cast<std::uint32_t>(bytes_.size()),
                        static_cast<std::uint32_t>(len), 0, 0});
  bytes_.insert(bytes_.end(), rec, rec + len);
  ++live_;
  ++unsent_;
}

std::int64_t SendWindow::markSent(std::int64_t now) {
  std::int64_t first = unsent_ > 0 ? now + backoffNs(1) : kNoDeadline;
  for (std::size_t i = slots_.size() - unsent_; i < slots_.size(); ++i) {
    slots_[i].attempt = 1;
    slots_[i].due = first;
  }
  unsent_ = 0;
  for (const std::uint64_t seq : requeued_) {
    const std::size_t at = indexOf(seq);
    if (at == slots_.size() || slots_[at].len == 0) continue;  // acked
    slots_[at].due = now + backoffNs(slots_[at].attempt);
    if (slots_[at].due < first) first = slots_[at].due;
  }
  requeued_.clear();
  return first;
}

int SendWindow::ack(std::uint64_t cum, std::uint64_t bitmap) {
  const std::size_t sent = slots_.size() - unsent_;  // never retire past it
  int retired = 0;
  auto take = [&](std::size_t at) {
    if (at < sent && slots_[at].len != 0) {
      slots_[at].len = 0;
      --live_;
      ++retired;
    }
  };
  const std::size_t span = slots_.size() - head_;
  if (cum >= base_) {
    const std::uint64_t covered = cum - base_ < span ? cum - base_ + 1 : span;
    for (std::size_t i = 0; i < covered; ++i) take(head_ + i);
  }
  for (std::uint64_t bits = bitmap; bits != 0; bits &= bits - 1) {
    const auto i = static_cast<std::uint64_t>(std::countr_zero(bits));
    take(indexOf(cum + 1 + i));  // wraps only to a seq <= cum: retired above
  }
  advance();
  return retired;
}

SendWindow::Expired SendWindow::expire(std::int64_t now, std::uint8_t* out,
                                       std::size_t room) {
  Expired r;
  for (std::size_t i = head_; i < slots_.size() - unsent_; ++i) {
    Slot& s = slots_[i];
    if (s.len == 0 || s.due > now) continue;
    if (policy_.giveUpAt(s.attempt)) {
      r.gaveUpAttempt = s.attempt;
      ++r.giveUps;
      s.len = 0;
      --live_;
      continue;
    }
    if (s.len > room - r.bytes) {
      r.full = true;
      break;
    }
    std::memcpy(out + r.bytes, bytes_.data() + s.off, s.len);
    r.bytes += s.len;
    ++r.records;
    ++s.attempt;
    s.due = kNoDeadline;
    requeued_.push_back(base_ + (i - head_));
  }
  advance();
  return r;
}

std::int64_t SendWindow::nextDue() const {
  std::int64_t due = kNoDeadline;
  for (std::size_t i = head_; i < slots_.size() - unsent_; ++i) {
    if (slots_[i].len != 0 && slots_[i].due < due) due = slots_[i].due;
  }
  return due;
}

SendWindow::SlotView SendWindow::slot(std::uint64_t seq) const {
  const std::size_t at = indexOf(seq);
  if (at == slots_.size() || slots_[at].len == 0) return {};
  const Slot& s = slots_[at];
  return {bytes_.data() + s.off, s.len, s.attempt, s.due};
}

std::size_t SendWindow::indexOf(std::uint64_t seq) const {
  if (seq < base_ || seq - base_ >= slots_.size() - head_)
    return slots_.size();
  return head_ + static_cast<std::size_t>(seq - base_);
}

void SendWindow::advance() {
  while (head_ < slots_.size() && slots_[head_].len == 0) {
    ++head_;
    ++base_;
  }
}

std::int64_t SendWindow::backoffNs(int attempt) const {
  return static_cast<std::int64_t>(policy_.backoffUs(attempt, baseRtoUs_) *
                                   1000.0);
}

bool RecvWindow::acceptSeq(std::uint64_t seq) {
  if (seq == cum_ + 1 && above_.empty()) {
    ++cum_;  // in order with no gap above: the set never needs touching
    return true;
  }
  if (seq <= cum_ || !above_.insert(seq).second) return false;
  while (!above_.empty() && *above_.begin() == cum_ + 1) {
    above_.erase(above_.begin());
    ++cum_;
  }
  return true;
}

CumAckView RecvWindow::cumAckView() const {
  CumAckView view;
  view.cum = cum_;
  for (const std::uint64_t seq : above_) {
    if (seq - cum_ > 64) break;  // beyond the bitmap's reach
    view.bitmap |= 1ULL << (seq - cum_ - 1);
  }
  return view;
}

}  // namespace proto
}  // namespace pods
