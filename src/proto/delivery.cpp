#include "proto/delivery.hpp"

#include <cstdio>

namespace pods {
namespace proto {

std::string linkCounterName(int fromPe, int toPe, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "net.link.%d->%d.%s", fromPe, toPe, what);
  return buf;
}

void Delivery::onAck(std::uint64_t msgId) { window_.erase(msgId); }

TimeoutDecision Delivery::onTimeout(std::uint64_t msgId, int expectedAttempt) {
  auto it = window_.find(msgId);
  if (it == window_.end()) return {};  // acked before the timer fired
  if (expectedAttempt != 0 && it->second != expectedAttempt)
    return {};  // superseded: a newer retransmit already re-armed the timer
  if (policy_.giveUpAt(it->second)) {
    const int attempt = it->second;
    window_.erase(it);
    counters_.add(kGiveUps);
    return {TimeoutDecision::Kind::GiveUp, attempt, 0.0};
  }
  it->second += 1;
  counters_.add(kResent);
  return {TimeoutDecision::Kind::Retransmit, it->second,
          policy_.backoffUs(it->second, baseRtoUs_)};
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
  registerProtocolCounters(out);
  out.merge(counters_);
}

void Delivery::registerProtocolCounters(Counters& out) {
  out.add(kResent, 0);
  out.add(kAcks, 0);
  out.add(kDupSuppressed, 0);
  out.add(kGiveUps, 0);
  out.add(kStragglers, 0);
}

void Delivery::registerInjectionCounters(Counters& out) {
  out.add(kFaultDrops, 0);
  out.add(kFaultDups, 0);
  out.add(kFaultDelays, 0);
  out.add(kFaultStalls, 0);
}

}  // namespace proto
}  // namespace pods
