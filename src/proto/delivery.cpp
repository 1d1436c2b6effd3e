#include "proto/delivery.hpp"

#include <cstdio>

namespace pods {
namespace proto {

std::string linkCounterName(int fromPe, int toPe, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "net.link.%d->%d.%s", fromPe, toPe, what);
  return buf;
}

void Delivery::onAck(std::uint64_t msgId) {
  window_.erase(msgId);
  eraseLinkInFlight(msgId);
}

TimeoutDecision Delivery::onTimeout(std::uint64_t msgId, int expectedAttempt) {
  auto it = window_.find(msgId);
  if (it == window_.end()) return {};  // acked before the timer fired
  if (expectedAttempt != 0 && it->second != expectedAttempt)
    return {};  // superseded: a newer retransmit already re-armed the timer
  if (policy_.giveUpAt(it->second)) {
    const int attempt = it->second;
    window_.erase(it);
    eraseLinkInFlight(msgId);
    counters_.add(kGiveUps);
    return {TimeoutDecision::Kind::GiveUp, attempt, 0.0};
  }
  it->second += 1;
  counters_.add(kResent);
  return {TimeoutDecision::Kind::Retransmit, it->second,
          policy_.backoffUs(it->second, baseRtoUs_)};
}

void Delivery::eraseLinkInFlight(std::uint64_t msgId) {
  if (linkInFlight_.empty()) return;  // plain onSend/onAck driver
  auto it = linkInFlight_.find(linkMsgIdLink(msgId));
  if (it == linkInFlight_.end()) return;
  it->second.erase(linkMsgIdSeq(msgId));
  if (it->second.empty()) linkInFlight_.erase(it);
}

void Delivery::onSendBatch(std::uint64_t firstMsgId, int count) {
  auto& inflight = linkInFlight_[linkMsgIdLink(firstMsgId)];
  for (int i = 0; i < count; ++i) {
    // Consecutive msgIds: seq occupies the low 48 bits and per-link seqs
    // are dense, so firstMsgId + i stays within the link's range.
    window_[firstMsgId + i] = 1;
    inflight.insert(linkMsgIdSeq(firstMsgId) + i);
  }
}

std::vector<std::uint64_t> Delivery::onCumAck(int srcPe, int dstPe,
                                              std::uint64_t cumSeq,
                                              std::uint64_t bitmap) {
  std::vector<std::uint64_t> retired;
  const std::uint32_t link =
      linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1));
  auto it = linkInFlight_.find(link);
  if (it == linkInFlight_.end()) return retired;
  auto& inflight = it->second;
  for (auto sit = inflight.begin(); sit != inflight.end();) {
    const std::uint64_t seq = *sit;
    if (seq > cumSeq + 64) break;  // ordered set: nothing further is covered
    const bool acked =
        seq <= cumSeq || ((bitmap >> (seq - cumSeq - 1)) & 1ULL) != 0;
    if (!acked) {
      ++sit;
      continue;
    }
    const std::uint64_t msgId = packLinkMsgId(srcPe, dstPe, seq);
    window_.erase(msgId);
    retired.push_back(msgId);
    sit = inflight.erase(sit);
  }
  if (inflight.empty()) linkInFlight_.erase(it);
  return retired;
}

std::vector<std::uint64_t> Delivery::resetSendLink(int srcPe, int dstPe) {
  std::vector<std::uint64_t> dropped;
  const std::uint32_t link = linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1));
  auto it = linkInFlight_.find(link);
  if (it == linkInFlight_.end()) return dropped;
  for (std::uint64_t seq : it->second) {
    dropped.push_back(seq);
    window_.erase(packLinkMsgId(srcPe, dstPe, seq));
  }
  linkInFlight_.erase(it);
  return dropped;
}

void Delivery::resetRecvLink(int srcPe, int dstPe) {
  linkRecv_.erase(linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1)));
}

std::uint64_t Delivery::lowestUnackedSeq(int srcPe, int dstPe) const {
  auto it = linkInFlight_.find(linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1)));
  if (it == linkInFlight_.end() || it->second.empty()) return 0;
  return *it->second.begin();
}

bool Delivery::acceptSeq(int srcPe, int dstPe, std::uint64_t seq) {
  RecvWin& win = linkRecv_[linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1))];
  if (seq == win.cum + 1 && win.above.empty()) {
    ++win.cum;  // in order with no gap above: the set never needs touching
    return true;
  }
  if (seq <= win.cum || win.above.count(seq) != 0) {
    counters_.add(kDupSuppressed);
    return false;
  }
  win.above.insert(seq);
  while (!win.above.empty() && *win.above.begin() == win.cum + 1) {
    win.above.erase(win.above.begin());
    ++win.cum;
  }
  return true;
}

bool Delivery::seenSeq(int srcPe, int dstPe, std::uint64_t seq) const {
  auto it = linkRecv_.find(linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1)));
  if (it == linkRecv_.end()) return false;
  return seq <= it->second.cum || it->second.above.count(seq) != 0;
}

Delivery::CumAckView Delivery::cumAckView(int srcPe, int dstPe) const {
  CumAckView view;
  auto it = linkRecv_.find(linkMsgIdLink(packLinkMsgId(srcPe, dstPe, 1)));
  if (it == linkRecv_.end()) return view;
  view.cum = it->second.cum;
  for (std::uint64_t seq : it->second.above) {
    if (seq > view.cum + 64) break;  // beyond the bitmap's reach
    view.bitmap |= 1ULL << (seq - view.cum - 1);
  }
  return view;
}

bool Delivery::accept(std::uint64_t msgId) {
  if (msgId == 0) return true;
  if (!seen_.insert(msgId).second) {
    counters_.add(kDupSuppressed);
    return false;
  }
  return true;
}

bool Delivery::straggler(std::uint64_t ctx) {
  if (retired_.count(ctx) == 0) return false;
  counters_.add(kStragglers);
  return true;
}

void Delivery::addStats(Counters& out) const {
  out.add(kResent, 0);
  out.add(kAcks, 0);
  out.add(kDupSuppressed, 0);
  out.add(kGiveUps, 0);
  out.add(kStragglers, 0);
  out.merge(counters_);
}

void Delivery::registerInjectionCounters(Counters& out) {
  out.add(kFaultDrops, 0);
  out.add(kFaultDups, 0);
  out.add(kFaultDelays, 0);
  out.add(kFaultStalls, 0);
}

}  // namespace proto
}  // namespace pods
