#include "proto/delivery.hpp"

#include <cstdio>

namespace pods {
namespace proto {

std::string linkCounterName(int fromPe, int toPe, const char* what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "net.link.%d->%d.%s", fromPe, toPe, what);
  return buf;
}

bool Delivery::accept(std::uint64_t msgId) {
  if (msgId == 0) return true;
  if (!seen_.insert(msgId).second) {
    ++dupSuppressed_;
    return false;
  }
  return true;
}

void Delivery::addStats(Counters& out) const {
  registerProtocolCounters(out);
  out.add(kDupSuppressed, dupSuppressed_);
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
