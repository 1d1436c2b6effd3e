#include "proto/ctl.hpp"

#include <cstring>

namespace pods {
namespace proto {
namespace ctl {

namespace {

// Count-driven decode loops are safe without explicit caps: every element
// consumes at least one payload byte, so a lying count field exhausts the
// Reader (ok_ drops) after at most payload-size iterations, and frame
// payloads are capped at kMaxFrameBytes before decoding starts.

bool validTag(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameTag::Hello) &&
         t <= static_cast<std::uint8_t>(FrameTag::Welcome);
}

}  // namespace

// ---- Framing --------------------------------------------------------------

void encodeFrame(FrameTag tag, const std::uint8_t* payload, std::size_t len,
                 std::vector<std::uint8_t>& out) {
  PODS_CHECK_MSG(len <= kMaxFrameBytes, "ctl frame payload over limit");
  const std::uint32_t n = static_cast<std::uint32_t>(len);
  const std::size_t base = out.size();
  out.resize(base + 5 + len);
  std::memcpy(out.data() + base, &n, 4);
  out[base + 4] = static_cast<std::uint8_t>(tag);
  if (len != 0) std::memcpy(out.data() + base + 5, payload, len);
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameReader::next(Frame& f, bool* bad) {
  *bad = bad_;
  if (bad_) return false;
  // Compact the consumed prefix lazily so feed() stays amortized O(n).
  if (off_ > 0 && off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
  if (buf_.size() - off_ < 5) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + off_, 4);
  const std::uint8_t tag = buf_[off_ + 4];
  if (len > kMaxFrameBytes || !validTag(tag)) {
    bad_ = true;
    *bad = true;
    return false;
  }
  if (buf_.size() - off_ - 5 < len) return false;
  f.tag = static_cast<FrameTag>(tag);
  f.payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 5),
                   buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 5 + len));
  off_ += 5 + len;
  return true;
}

// ---- Primitives -----------------------------------------------------------

void Writer::u16(std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void Writer::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}
void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}
void Writer::value(const Value& v) {
  u8(static_cast<std::uint8_t>(v.tag));
  u64(v.bits);
}

bool Reader::u8(std::uint8_t& v) {
  if (!ok_ || n_ - off_ < 1) return ok_ = false;
  v = p_[off_++];
  return true;
}
bool Reader::u16(std::uint16_t& v) {
  if (!ok_ || n_ - off_ < 2) return ok_ = false;
  std::memcpy(&v, p_ + off_, 2);
  off_ += 2;
  return true;
}
bool Reader::u32(std::uint32_t& v) {
  if (!ok_ || n_ - off_ < 4) return ok_ = false;
  std::memcpy(&v, p_ + off_, 4);
  off_ += 4;
  return true;
}
bool Reader::u64(std::uint64_t& v) {
  if (!ok_ || n_ - off_ < 8) return ok_ = false;
  std::memcpy(&v, p_ + off_, 8);
  off_ += 8;
  return true;
}
bool Reader::i64(std::int64_t& v) {
  std::uint64_t u = 0;
  if (!u64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}
bool Reader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  std::memcpy(&v, &bits, 8);
  return true;
}
bool Reader::str(std::string& s) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (n_ - off_ < len) return ok_ = false;
  s.assign(reinterpret_cast<const char*>(p_ + off_), len);
  off_ += len;
  return true;
}
bool Reader::value(Value& v) {
  std::uint8_t tag = 0;
  std::uint64_t bits = 0;
  if (!u8(tag) || !u64(bits)) return false;
  if (tag > static_cast<std::uint8_t>(Tag::Cont)) return ok_ = false;
  v.tag = static_cast<Tag>(tag);
  v.bits = bits;
  return true;
}

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- Hello ----------------------------------------------------------------

void encodeHello(const HelloMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u32(m.magic);
  w.u16(m.version);
  out = std::move(w.out);
}

bool decodeHello(const std::uint8_t* p, std::size_t n, HelloMsg& m) {
  Reader r(p, n);
  if (!r.u32(m.magic) || !r.u16(m.version)) return false;
  return r.done();
}

// ---- Log records ----------------------------------------------------------

void encodeLogRec(const LogRec& r, Writer& w) {
  w.u8(r.kind);
  if (r.kind == LogRec::kResult) {
    w.u32(r.mintSeq);
    w.value(r.mintV);
    return;
  }
  if (r.kind == LogRec::kMint) {
    w.u64(r.mintCtx);
    w.u32(r.mintSeq);
    w.value(r.mintV);
    w.u64(r.ctxCounter);
    return;
  }
  const RecEntry& e = r.entry;
  w.u16(e.spCode);
  w.u64(e.ctx);
  w.u16(e.slot);
  w.value(e.v);
  w.u8(e.add ? 1 : 0);
  w.u32(e.frame);
  w.u16(e.gen);
  w.u64(e.senderCtx);
  w.u64(e.sendKey);
  w.u64(e.msgId);
}

bool decodeLogRec(Reader& r, LogRec& out) {
  if (!r.u8(out.kind)) return false;
  if (out.kind > LogRec::kMaxRecKind && out.kind != LogRec::kMint &&
      out.kind != LogRec::kResult) {
    return false;
  }
  if (out.kind == LogRec::kResult) {
    return r.u32(out.mintSeq) && r.value(out.mintV);
  }
  if (out.kind == LogRec::kMint) {
    return r.u64(out.mintCtx) && r.u32(out.mintSeq) && r.value(out.mintV) &&
           r.u64(out.ctxCounter);
  }
  RecEntry& e = out.entry;
  e.kind = static_cast<RecEntry::Kind>(out.kind);
  std::uint8_t add = 0;
  if (!(r.u16(e.spCode) && r.u64(e.ctx) && r.u16(e.slot) && r.value(e.v) &&
        r.u8(add) && r.u32(e.frame) && r.u16(e.gen) && r.u64(e.senderCtx) &&
        r.u64(e.sendKey) && r.u64(e.msgId))) {
    return false;
  }
  if (add > 1) return false;
  e.add = add != 0;
  return true;
}

// ---- Boot -----------------------------------------------------------------

namespace {

void encodeProgram(const SpProgram& prog, Writer& w) {
  w.u16(prog.mainSp);
  w.u32(static_cast<std::uint32_t>(prog.numResults));
  w.u16(static_cast<std::uint16_t>(prog.sps.size()));
  for (const SpCode& sp : prog.sps) {
    w.u16(sp.id);
    w.str(sp.name);
    w.u8(static_cast<std::uint8_t>(sp.kind));
    w.u16(sp.numSlots);
    w.u16(sp.numArgs);
    w.u8(sp.replicated ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(sp.slotNames.size()));
    for (const std::string& s : sp.slotNames) w.str(s);
    w.u32(static_cast<std::uint32_t>(sp.code.size()));
    for (const Instr& in : sp.code) {
      w.u8(static_cast<std::uint8_t>(in.op));
      w.u8(in.dim);
      w.u16(in.dst);
      w.u16(in.a);
      w.u16(in.b);
      w.u16(in.c);
      w.u32(in.aux);
      w.u32(static_cast<std::uint32_t>(in.off));
      w.value(in.imm);
    }
  }
}

bool decodeProgram(Reader& r, SpProgram& prog) {
  std::uint32_t numResults = 0;
  std::uint16_t numSps = 0;
  if (!r.u16(prog.mainSp) || !r.u32(numResults) || !r.u16(numSps)) return false;
  prog.numResults = static_cast<int>(numResults);
  prog.sps.clear();
  for (std::uint16_t i = 0; i < numSps; ++i) {
    SpCode sp;
    std::uint8_t kind = 0, replicated = 0;
    std::uint32_t numNames = 0, numInstrs = 0;
    if (!(r.u16(sp.id) && r.str(sp.name) && r.u8(kind) && r.u16(sp.numSlots) &&
          r.u16(sp.numArgs) && r.u8(replicated) && r.u32(numNames))) {
      return false;
    }
    if (kind > static_cast<std::uint8_t>(SpKind::WhileLoop) || replicated > 1)
      return false;
    sp.kind = static_cast<SpKind>(kind);
    sp.replicated = replicated != 0;
    for (std::uint32_t s = 0; s < numNames; ++s) {
      std::string name;
      if (!r.str(name)) return false;
      sp.slotNames.push_back(std::move(name));
    }
    if (!r.u32(numInstrs)) return false;
    for (std::uint32_t c = 0; c < numInstrs; ++c) {
      Instr in;
      std::uint8_t op = 0;
      std::uint32_t off = 0;
      if (!(r.u8(op) && r.u8(in.dim) && r.u16(in.dst) && r.u16(in.a) &&
            r.u16(in.b) && r.u16(in.c) && r.u32(in.aux) && r.u32(off) &&
            r.value(in.imm))) {
        return false;
      }
      if (op > static_cast<std::uint8_t>(Op::END)) return false;
      in.op = static_cast<Op>(op);
      in.off = static_cast<std::int32_t>(off);
      sp.code.push_back(in);
    }
    prog.sps.push_back(std::move(sp));
  }
  // The executor does not bounds-check the pc or operand slots per
  // instruction, so a program the worker would run must pass the same
  // load-time check the compiler's output does.
  return checkProgram(prog).empty();
}

void encodeFaults(const FaultConfig& f, Writer& w) {
  w.f64(f.dropProb);
  w.f64(f.dupProb);
  w.f64(f.delayProb);
  w.f64(f.stallProb);
  w.u64(f.seed);
  w.f64(f.retry.rtoUs);
  w.u32(static_cast<std::uint32_t>(f.retry.maxAttempts));
  w.u32(static_cast<std::uint32_t>(f.retry.maxBackoffDoublings));
  w.f64(f.retry.faultFreeFloorUs);
  w.f64(f.simDelayUs);
  w.f64(f.simStallUs);
  w.f64(f.nativeDelayUs);
  w.f64(f.nativeStallUs);
  w.u32(static_cast<std::uint32_t>(f.killPe));
  w.f64(f.killTimeUs);
  w.f64(f.killRestartUs);
}

bool decodeFaults(Reader& r, FaultConfig& f) {
  std::uint32_t maxAttempts = 0, maxDoublings = 0, killPe = 0;
  if (!(r.f64(f.dropProb) && r.f64(f.dupProb) && r.f64(f.delayProb) &&
        r.f64(f.stallProb) && r.u64(f.seed) && r.f64(f.retry.rtoUs) &&
        r.u32(maxAttempts) && r.u32(maxDoublings) &&
        r.f64(f.retry.faultFreeFloorUs) && r.f64(f.simDelayUs) &&
        r.f64(f.simStallUs) && r.f64(f.nativeDelayUs) &&
        r.f64(f.nativeStallUs) && r.u32(killPe) && r.f64(f.killTimeUs) &&
        r.f64(f.killRestartUs))) {
    return false;
  }
  f.retry.maxAttempts = static_cast<int>(maxAttempts);
  f.retry.maxBackoffDoublings = static_cast<int>(maxDoublings);
  f.killPe = static_cast<int>(killPe);
  return true;
}

}  // namespace

void encodeBoot(const BootMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u16(m.numPes);
  w.u16(m.localPe);
  w.u8(m.epoch);
  w.u8(m.resume);
  w.u8(m.store);
  w.u32(m.pageElems);
  w.u32(m.sliceInstructions);
  w.u32(m.heartbeatPeriodMs);
  w.u32(m.heartbeatTimeoutMs);
  w.u16(static_cast<std::uint16_t>(m.peerPorts.size()));
  for (std::uint16_t p : m.peerPorts) w.u16(p);
  w.u16(static_cast<std::uint16_t>(m.peWeights.size()));
  for (std::int64_t x : m.peWeights) w.i64(x);
  encodeFaults(m.faults, w);
  encodeProgram(m.program, w);
  w.u32(static_cast<std::uint32_t>(m.log.size()));
  for (const LogRec& r : m.log) encodeLogRec(r, w);

  Writer full;
  full.u64(fnv1a(w.out.data(), w.out.size()));
  full.out.insert(full.out.end(), w.out.begin(), w.out.end());
  out = std::move(full.out);
}

bool decodeBoot(const std::uint8_t* p, std::size_t n, BootMsg& m,
                std::uint64_t* wantHash, std::uint64_t* gotHash) {
  Reader r(p, n);
  std::uint64_t hash = 0;
  if (!r.u64(hash)) return false;
  const std::uint64_t computed = fnv1a(p + 8, n - 8);
  if (wantHash) *wantHash = hash;
  if (gotHash) *gotHash = computed;
  if (computed != hash) return false;
  std::uint16_t numPorts = 0, numWeights = 0;
  if (!(r.u16(m.numPes) && r.u16(m.localPe) && r.u8(m.epoch) &&
        r.u8(m.resume) && r.u8(m.store) && m.store <= 1 &&
        r.u32(m.pageElems) && r.u32(m.sliceInstructions) &&
        r.u32(m.heartbeatPeriodMs) && r.u32(m.heartbeatTimeoutMs) &&
        r.u16(numPorts))) {
    return false;
  }
  m.peerPorts.clear();
  for (std::uint16_t i = 0; i < numPorts; ++i) {
    std::uint16_t port = 0;
    if (!r.u16(port)) return false;
    m.peerPorts.push_back(port);
  }
  if (!r.u16(numWeights)) return false;
  m.peWeights.clear();
  for (std::uint16_t i = 0; i < numWeights; ++i) {
    std::int64_t x = 0;
    if (!r.i64(x)) return false;
    m.peWeights.push_back(x);
  }
  if (!decodeFaults(r, m.faults)) return false;
  if (!decodeProgram(r, m.program)) return false;
  std::uint32_t numRecs = 0;
  if (!r.u32(numRecs)) return false;
  m.log.clear();
  for (std::uint32_t i = 0; i < numRecs; ++i) {
    LogRec rec;
    if (!decodeLogRec(r, rec)) return false;
    m.log.push_back(rec);
  }
  return r.done();
}

// ---- PortTable ------------------------------------------------------------

void encodePortTable(const std::vector<PeerEndpoint>& peers,
                     std::vector<std::uint8_t>& out) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(peers.size()));
  for (const PeerEndpoint& pe : peers) {
    w.u16(pe.port);
    w.u8(pe.epoch);
  }
  out = std::move(w.out);
}

bool decodePortTable(const std::uint8_t* p, std::size_t n,
                     std::vector<PeerEndpoint>& peers) {
  Reader r(p, n);
  std::uint16_t count = 0;
  if (!r.u16(count)) return false;
  peers.clear();
  for (std::uint16_t i = 0; i < count; ++i) {
    PeerEndpoint pe;
    if (!r.u16(pe.port) || !r.u8(pe.epoch)) return false;
    peers.push_back(pe);
  }
  return r.done();
}

// ---- Log ------------------------------------------------------------------

void encodeLog(const LogMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(m.firstSeq);
  w.u32(static_cast<std::uint32_t>(m.recs.size()));
  for (const LogRec& r : m.recs) encodeLogRec(r, w);
  out = std::move(w.out);
}

bool decodeLog(const std::uint8_t* p, std::size_t n, LogMsg& m) {
  Reader r(p, n);
  std::uint32_t count = 0;
  if (!r.u64(m.firstSeq) || !r.u32(count)) return false;
  m.recs.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    LogRec rec;
    if (!decodeLogRec(r, rec)) return false;
    m.recs.push_back(rec);
  }
  return r.done();
}

// ---- Status ---------------------------------------------------------------

void encodeStatus(const StatusMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(m.statusSeq);
  w.u8(m.idle);
  w.i64(m.pending);
  w.i64(m.inboxTokens);
  w.i64(m.outstanding);
  w.u64(m.logAppended);
  w.u64(m.activity);
  out = std::move(w.out);
}

bool decodeStatus(const std::uint8_t* p, std::size_t n, StatusMsg& m) {
  Reader r(p, n);
  if (!(r.u64(m.statusSeq) && r.u8(m.idle) && r.i64(m.pending) &&
        r.i64(m.inboxTokens) && r.i64(m.outstanding) && r.u64(m.logAppended) &&
        r.u64(m.activity))) {
    return false;
  }
  return r.done() && m.idle <= 1;
}

// ---- Result ---------------------------------------------------------------

void encodeResult(const ResultMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  w.u32(static_cast<std::uint32_t>(m.results.size()));
  for (std::size_t i = 0; i < m.results.size(); ++i) {
    w.u8(i < m.resultSet.size() ? m.resultSet[i] : 0);
    w.value(m.results[i]);
  }
  w.u32(static_cast<std::uint32_t>(m.arrays.size()));
  for (const ResultMsg::OwnedArray& a : m.arrays) {
    w.u32(a.id);
    w.u8(a.hasMeta);
    w.u8(a.rank);
    w.i64(a.dim0);
    w.i64(a.dim1);
    w.u32(static_cast<std::uint32_t>(a.elems.size()));
    for (const auto& [off, v] : a.elems) {
      w.i64(off);
      w.value(v);
    }
  }
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [k, v] : m.counters) {
    w.str(k);
    w.i64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.workerCounters.size()));
  for (const auto& [k, v] : m.workerCounters) {
    w.str(k);
    w.i64(v);
  }
  out = std::move(w.out);
}

bool decodeResult(const std::uint8_t* p, std::size_t n, ResultMsg& m) {
  Reader r(p, n);
  std::uint8_t ok = 0;
  std::uint32_t numResults = 0;
  if (!r.u8(ok) || ok > 1 || !r.str(m.error) || !r.u32(numResults))
    return false;
  m.ok = ok != 0;
  m.resultSet.clear();
  m.results.clear();
  for (std::uint32_t i = 0; i < numResults; ++i) {
    std::uint8_t set = 0;
    Value v;
    if (!r.u8(set) || set > 1 || !r.value(v)) return false;
    m.resultSet.push_back(set);
    m.results.push_back(v);
  }
  std::uint32_t numArrays = 0;
  if (!r.u32(numArrays)) return false;
  m.arrays.clear();
  for (std::uint32_t i = 0; i < numArrays; ++i) {
    ResultMsg::OwnedArray a;
    std::uint32_t numElems = 0;
    if (!(r.u32(a.id) && r.u8(a.hasMeta) && r.u8(a.rank) && r.i64(a.dim0) &&
          r.i64(a.dim1) && r.u32(numElems)) ||
        a.hasMeta > 1 || a.rank < 1 || a.rank > 2 || a.dim0 < 0 ||
        a.dim1 < 0) {
      return false;
    }
    a.elems.reserve(numElems);
    for (std::uint32_t e = 0; e < numElems; ++e) {
      std::int64_t off = 0;
      Value v;
      if (!r.i64(off) || off < 0 || !r.value(v)) return false;
      a.elems.emplace_back(off, v);
    }
    m.arrays.push_back(std::move(a));
  }
  auto readMap = [&](std::vector<std::pair<std::string, std::int64_t>>& out2) {
    std::uint32_t count = 0;
    if (!r.u32(count)) return false;
    out2.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string k;
      std::int64_t v = 0;
      if (!r.str(k) || !r.i64(v)) return false;
      out2.emplace_back(std::move(k), v);
    }
    return true;
  };
  if (!readMap(m.counters) || !readMap(m.workerCounters)) return false;
  return r.done();
}

// ---- Error + scalars ------------------------------------------------------

void encodeError(const ErrorMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u32(m.code);
  w.str(m.text);
  out = std::move(w.out);
}

bool decodeError(const std::uint8_t* p, std::size_t n, ErrorMsg& m) {
  Reader r(p, n);
  if (!r.u32(m.code) || !r.str(m.text)) return false;
  return r.done();
}

// ---- Serving-daemon messages ---------------------------------------------

void encodeWelcome(const WelcomeMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(m.cfgHash);
  w.u16(m.pes);
  w.u32(m.pageElems);
  w.u32(m.maxInflight);
  w.u32(m.maxQueue);
  out = std::move(w.out);
}

bool decodeWelcome(const std::uint8_t* p, std::size_t n, WelcomeMsg& m) {
  Reader r(p, n);
  if (!(r.u64(m.cfgHash) && r.u16(m.pes) && r.u32(m.pageElems) &&
        r.u32(m.maxInflight) && r.u32(m.maxQueue))) {
    return false;
  }
  return r.done();
}

void encodeSubmit(const SubmitMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(m.cfgHash);
  w.u32(m.clientTag);
  w.u32(m.timeoutMs);
  w.str(m.source);
  out = std::move(w.out);
}

bool decodeSubmit(const std::uint8_t* p, std::size_t n, SubmitMsg& m) {
  Reader r(p, n);
  if (!(r.u64(m.cfgHash) && r.u32(m.clientTag) && r.u32(m.timeoutMs) &&
        r.str(m.source))) {
    return false;
  }
  m.byHash = 0;
  m.sourceHash = 0;
  return r.done();
}

void encodeCacheRef(const SubmitMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(m.cfgHash);
  w.u32(m.clientTag);
  w.u32(m.timeoutMs);
  w.u64(m.sourceHash);
  out = std::move(w.out);
}

bool decodeCacheRef(const std::uint8_t* p, std::size_t n, SubmitMsg& m) {
  Reader r(p, n);
  if (!(r.u64(m.cfgHash) && r.u32(m.clientTag) && r.u32(m.timeoutMs) &&
        r.u64(m.sourceHash))) {
    return false;
  }
  m.byHash = 1;
  m.source.clear();
  return r.done();
}

void encodeJobResult(const JobResultMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u32(m.clientTag);
  w.u32(m.jobId);
  w.u8(m.ok);
  w.u8(m.cacheHit);
  w.u64(m.sourceHash);
  w.f64(m.wallMs);
  w.str(m.error);
  w.u32(static_cast<std::uint32_t>(m.results.size()));
  for (std::size_t i = 0; i < m.results.size(); ++i) {
    w.u8(i < m.resultSet.size() ? m.resultSet[i] : 0);
    w.value(m.results[i]);
    const JobResultMsg::OutArray* a =
        i < m.arrays.size() ? &m.arrays[i] : nullptr;
    if (a == nullptr || a->present == 0) {
      w.u8(0);
      continue;
    }
    w.u8(1);
    w.u8(a->rank);
    w.i64(a->dim0);
    w.i64(a->dim1);
    w.u32(static_cast<std::uint32_t>(a->elems.size()));
    for (const Value& v : a->elems) w.value(v);
  }
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [k, v] : m.counters) {
    w.str(k);
    w.i64(v);
  }
  out = std::move(w.out);
}

bool decodeJobResult(const std::uint8_t* p, std::size_t n, JobResultMsg& m) {
  Reader r(p, n);
  std::uint32_t numResults = 0;
  if (!(r.u32(m.clientTag) && r.u32(m.jobId) && r.u8(m.ok) &&
        r.u8(m.cacheHit) && r.u64(m.sourceHash) && r.f64(m.wallMs) &&
        r.str(m.error) && r.u32(numResults))) {
    return false;
  }
  if (m.ok > 1 || m.cacheHit > 1) return false;
  m.resultSet.clear();
  m.results.clear();
  m.arrays.clear();
  for (std::uint32_t i = 0; i < numResults; ++i) {
    std::uint8_t set = 0;
    Value v;
    JobResultMsg::OutArray a;
    if (!r.u8(set) || set > 1 || !r.value(v) || !r.u8(a.present) ||
        a.present > 1) {
      return false;
    }
    if (a.present != 0) {
      std::uint32_t numElems = 0;
      if (!(r.u8(a.rank) && r.i64(a.dim0) && r.i64(a.dim1) &&
            r.u32(numElems)) ||
          a.rank < 1 || a.rank > 2) {
        return false;
      }
      // The daemon always ships the full materialized array, so the element
      // count is not free-form: it must equal the shape's product. A frame
      // whose count disagrees (truncated mid-stream, corrupted length) is a
      // decode failure, not a silently clamped result. The product bound
      // mirrors the machine's allocation cap so a hostile header can't make
      // us reserve gigabytes before the element loop fails.
      if (a.dim0 < 0 || a.dim1 < 0) return false;
      const std::int64_t expect = a.rank == 1 ? a.dim0 : a.dim0 * a.dim1;
      if (a.rank == 2 && a.dim1 != 0 &&
          a.dim0 > (std::int64_t{1} << 26) / a.dim1) {
        return false;
      }
      if (expect > (std::int64_t{1} << 26) ||
          static_cast<std::int64_t>(numElems) != expect) {
        return false;
      }
      for (std::uint32_t e = 0; e < numElems; ++e) {
        Value ev;
        if (!r.value(ev)) return false;
        a.elems.push_back(ev);
      }
    }
    m.resultSet.push_back(set);
    m.results.push_back(v);
    m.arrays.push_back(std::move(a));
  }
  std::uint32_t numCounters = 0;
  if (!r.u32(numCounters)) return false;
  m.counters.clear();
  for (std::uint32_t i = 0; i < numCounters; ++i) {
    std::string k;
    std::int64_t v = 0;
    if (!r.str(k) || !r.i64(v)) return false;
    m.counters.emplace_back(std::move(k), v);
  }
  return r.done();
}

void encodeBusy(const BusyMsg& m, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u32(m.clientTag);
  w.u32(m.inflight);
  w.u32(m.queued);
  w.u32(m.maxInflight);
  w.u32(m.maxQueue);
  out = std::move(w.out);
}

bool decodeBusy(const std::uint8_t* p, std::size_t n, BusyMsg& m) {
  Reader r(p, n);
  if (!(r.u32(m.clientTag) && r.u32(m.inflight) && r.u32(m.queued) &&
        r.u32(m.maxInflight) && r.u32(m.maxQueue))) {
    return false;
  }
  return r.done();
}

void encodeU64(std::uint64_t v, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u64(v);
  out = std::move(w.out);
}

bool decodeU64(const std::uint8_t* p, std::size_t n, std::uint64_t& v) {
  Reader r(p, n);
  if (!r.u64(v)) return false;
  return r.done();
}

void encodeU16(std::uint16_t v, std::vector<std::uint8_t>& out) {
  Writer w;
  w.u16(v);
  out = std::move(w.out);
}

bool decodeU16(const std::uint8_t* p, std::size_t n, std::uint16_t& v) {
  Reader r(p, n);
  if (!r.u16(v)) return false;
  return r.done();
}

}  // namespace ctl
}  // namespace proto
}  // namespace pods
