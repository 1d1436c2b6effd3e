// Control-channel protocol for multi-process PODS.
//
// When `podsc --transport=udp-multiproc` runs, the tool process becomes a
// *supervisor* and each PE a forked worker process. Tokens travel PE-to-PE
// over the UDP batch wire exactly as in-process `--transport=udp`; this
// module defines the second, supervisor<->worker wire: a length-prefixed
// frame stream over a socketpair that carries everything that is NOT a
// token — the compiled SP program and machine configuration at boot, the
// pessimistic receive/allocate log stream (the stable storage that makes
// `kill -9` recovery possible), heartbeats, the UDP port/epoch table,
// termination polling, and the final results/counters.
//
// Framing: [u32 len][u8 tag][len payload bytes], little-endian. Decoding is
// all-or-nothing, mirroring the UDP batch wire: a truncated payload,
// trailing junk, an out-of-range tag, an over-limit length, a magic or
// version mismatch — any of these rejects the whole frame into
// `net.ctl.badFrames` and surfaces a structured error instead of decoding
// garbage. The handshake (Hello/HelloAck with magic + protocol version,
// then a config hash over the Boot payload) is what lets a stale or
// mismatched worker binary fail fast.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/isa.hpp"
#include "runtime/value.hpp"
#include "support/fault.hpp"
#include "support/recovery.hpp"

namespace pods {
namespace proto {
namespace ctl {

inline constexpr std::uint32_t kMagic = 0x5043544Cu;  // "PCTL"
inline constexpr std::uint16_t kVersion = 1;
/// Hard cap on one frame's payload — a Boot frame carries the whole SP
/// program plus (on respawn) the full recovery log stream.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Canonical counter names (mirroring net.udp.badDatagrams).
inline constexpr const char* kBadFrames = "net.ctl.badFrames";
inline constexpr const char* kFrames = "net.ctl.frames";

enum class FrameTag : std::uint8_t {
  Hello = 1,      // sup->wrk: magic + protocol version
  HelloAck = 2,   // wrk->sup: magic + version echo
  Boot = 3,       // sup->wrk: config hash + program + config (+ resume log)
  BootAck = 4,    // wrk->sup: config hash echo
  PortAnnounce = 5,  // wrk->sup: the worker's bound UDP port
  PortTable = 6,  // sup->wrk: (port, epoch) of every PE; re-sent on respawn
  PortTableAck = 7,  // wrk->sup: table applied (respawn barrier)
  Start = 8,      // sup->wrk: begin (or resume) execution
  Log = 9,        // wrk->sup: recovery-log records (pessimistic logging)
  LogAck = 10,    // sup->wrk: log stable up to sequence N
  Heartbeat = 11,  // wrk->sup: liveness
  Status = 12,    // wrk->sup: termination-snapshot reply
  Poll = 13,      // sup->wrk: termination-snapshot request
  End = 14,       // sup->wrk: global quiescence reached — report and exit
  Result = 15,    // wrk->sup: results, counters, error state
  Error = 16,     // either way: structured fatal error
  // Serving-daemon (podsd) frames. Same stream rules apply: the daemon
  // replies to a malformed client frame with Error, counts it into
  // net.ctl.badFrames, and closes the connection.
  Submit = 17,     // cli->srv: IdLite source + job options
  CacheRef = 18,   // cli->srv: job by compiled-program handle (source hash)
  JobResult = 19,  // srv->cli: results + per-job counters
  Busy = 20,       // srv->cli: admission rejected (bounded queue full)
  Welcome = 21,    // srv->cli: config hash + serving limits after HelloAck
};

/// One decoded control frame.
struct Frame {
  FrameTag tag = FrameTag::Error;
  std::vector<std::uint8_t> payload;
};

/// Appends the wire image of one frame to `out`.
void encodeFrame(FrameTag tag, const std::uint8_t* payload, std::size_t len,
                 std::vector<std::uint8_t>& out);
inline void encodeFrame(FrameTag tag, const std::vector<std::uint8_t>& payload,
                        std::vector<std::uint8_t>& out) {
  encodeFrame(tag, payload.data(), payload.size(), out);
}

/// Incremental frame extractor over a byte stream. feed() buffered bytes,
/// then next() until it returns false. A malformed header (unknown tag /
/// over-limit length) poisons the stream: next() sets `*bad` and the
/// connection must be torn down — there is no way to resynchronize a
/// length-prefixed stream after a corrupt header.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  bool next(Frame& f, bool* bad);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
  bool bad_ = false;
};

// ---- Payload primitives ---------------------------------------------------

/// Bounds-checked little-endian payload writer.
class Writer {
 public:
  std::vector<std::uint8_t> out;
  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  void value(const Value& v);
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false once the payload is exhausted or a field is malformed; decoders
/// finish with done(), which additionally rejects trailing junk.
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}
  bool u8(std::uint8_t& v);
  bool u16(std::uint16_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool str(std::string& s);
  bool value(Value& v);
  bool ok() const { return ok_; }
  bool done() const { return ok_ && off_ == n_; }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte range — the Boot config hash. Both sides hash the
/// Boot payload after the hash field; a worker built from different source
/// (struct layout drift, different program) almost surely disagrees.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n);

// ---- Messages -------------------------------------------------------------

struct HelloMsg {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kVersion;
};
void encodeHello(const HelloMsg& m, std::vector<std::uint8_t>& out);
bool decodeHello(const std::uint8_t* p, std::size_t n, HelloMsg& m);

/// One recovery-log record on the wire: the worker mirrors every RecEntry
/// append and every mint to the supervisor (pessimistic logging — the
/// supervisor is the "stable storage" a respawned worker replays from).
struct LogRec {
  // Kinds 0..kMaxRecKind are RecEntry kinds verbatim (5 = Am: wire-store
  // array message). Mint/Result live far above so new RecEntry kinds never
  // collide with them.
  static constexpr std::uint8_t kMaxRecKind =
      static_cast<std::uint8_t>(RecEntry::Kind::Am);
  static constexpr std::uint8_t kMint = 250;    // NEWCTX / ALLOC identity
  static constexpr std::uint8_t kResult = 251;  // program RESULT store
  std::uint8_t kind = 0;
  RecEntry entry{};            // kind 0..kMaxRecKind (4 = Recv: msgId only)
  std::uint64_t mintCtx = 0;   // kMint
  std::uint32_t mintSeq = 0;   // kMint: mint seq; kResult: result slot
  Value mintV{};               // kMint: minted identity; kResult: the value
  std::uint64_t ctxCounter = 0;  // minting PE's counter high-water
};
void encodeLogRec(const LogRec& r, Writer& w);
bool decodeLogRec(Reader& r, LogRec& out);

struct BootMsg {
  std::uint16_t numPes = 0;
  std::uint16_t localPe = 0;
  std::uint8_t epoch = 0;
  std::uint8_t resume = 0;
  /// Array-store backend (native::StoreKind numeric value): 0 = local
  /// (the cell store, inherited as an fd), 1 = wire store. Covered by the
  /// Boot config hash, so a supervisor/worker store mismatch fails fast at
  /// the handshake.
  std::uint8_t store = 0;
  std::uint32_t pageElems = 32;
  std::uint32_t sliceInstructions = 1024;
  std::uint32_t heartbeatPeriodMs = 25;
  std::uint32_t heartbeatTimeoutMs = 2000;
  /// Loopback UDP data-plane port of every PE, indexed by pe. The
  /// supervisor binds all sockets up front and workers inherit their own
  /// fd across fork, so the table is fixed for the whole run — a respawned
  /// worker reuses the same socket (port + buffered datagrams survive).
  std::vector<std::uint16_t> peerPorts;
  std::vector<std::int64_t> peWeights;
  FaultConfig faults{};
  SpProgram program{};
  std::vector<LogRec> log;  // resume only: the PE's full recovery stream
};
/// Encodes `m` with a leading FNV-1a hash of everything after it.
void encodeBoot(const BootMsg& m, std::vector<std::uint8_t>& out);
/// All-or-nothing decode; also fails on a config-hash mismatch.
bool decodeBoot(const std::uint8_t* p, std::size_t n, BootMsg& m,
                std::uint64_t* wantHash = nullptr,
                std::uint64_t* gotHash = nullptr);

struct PeerEndpoint {
  std::uint16_t port = 0;
  std::uint8_t epoch = 0;
};
void encodePortTable(const std::vector<PeerEndpoint>& peers,
                     std::vector<std::uint8_t>& out);
bool decodePortTable(const std::uint8_t* p, std::size_t n,
                     std::vector<PeerEndpoint>& peers);

struct LogMsg {
  std::uint64_t firstSeq = 0;  // 0-based index of recs[0] in the PE's stream
  std::vector<LogRec> recs;
};
void encodeLog(const LogMsg& m, std::vector<std::uint8_t>& out);
bool decodeLog(const std::uint8_t* p, std::size_t n, LogMsg& m);

/// Worker's reply to a termination Poll: a snapshot of the quiescence
/// inputs. The supervisor runs a two-round Dijkstra–Safra-style check over
/// these (see procmgr.cpp).
struct StatusMsg {
  std::uint64_t statusSeq = 0;  // echoes the Poll's sequence number
  std::uint8_t idle = 0;        // the worker thread is cv-parked
  std::int64_t pending = 0;     // live frames + undrained deposited tokens
  std::int64_t inboxTokens = 0;
  std::int64_t outstanding = 0;  // unacked + outbox-buffered sends
  std::uint64_t logAppended = 0;  // log records appended so far
  std::uint64_t activity = 0;    // monotone work counter (deposits + wakes)
};
void encodeStatus(const StatusMsg& m, std::vector<std::uint8_t>& out);
bool decodeStatus(const std::uint8_t* p, std::size_t n, StatusMsg& m);

struct ResultMsg {
  /// Wire store: one array's slice owned by the reporting worker — its
  /// (offset, value) pairs plus, from the allocator PE only, the shape.
  /// With no cell store, the Result frame is how materialized arrays reach
  /// the supervisor for post-run gather().
  struct OwnedArray {
    std::uint32_t id = 0;
    std::uint8_t hasMeta = 0;
    std::uint8_t rank = 1;
    std::int64_t dim0 = 0;
    std::int64_t dim1 = 1;
    std::vector<std::pair<std::int64_t, Value>> elems;
  };
  bool ok = true;
  std::string error;
  std::vector<std::uint8_t> resultSet;  // parallel to results: value present?
  std::vector<Value> results;
  std::vector<OwnedArray> arrays;  // wire store only; empty under LocalStore
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> workerCounters;
};
void encodeResult(const ResultMsg& m, std::vector<std::uint8_t>& out);
bool decodeResult(const std::uint8_t* p, std::size_t n, ResultMsg& m);

struct ErrorMsg {
  std::uint32_t code = 0;
  std::string text;
};
void encodeError(const ErrorMsg& m, std::vector<std::uint8_t>& out);
bool decodeError(const std::uint8_t* p, std::size_t n, ErrorMsg& m);

// ---- Serving-daemon messages ---------------------------------------------

/// Daemon's half of the serve handshake, sent right after HelloAck. The
/// config hash covers {protocol version, pes, pageElems}; a Submit must echo
/// it, so a client pointed at a daemon with a different machine shape fails
/// fast instead of getting silently different partitioning.
struct WelcomeMsg {
  std::uint64_t cfgHash = 0;
  std::uint16_t pes = 0;
  std::uint32_t pageElems = 0;
  std::uint32_t maxInflight = 0;
  std::uint32_t maxQueue = 0;
};
void encodeWelcome(const WelcomeMsg& m, std::vector<std::uint8_t>& out);
bool decodeWelcome(const std::uint8_t* p, std::size_t n, WelcomeMsg& m);

/// A job submission. One struct backs both wire frames: Submit carries the
/// IdLite source (byHash == 0), CacheRef carries only the FNV-1a source hash
/// of a program the daemon is expected to still have compiled (byHash == 1).
struct SubmitMsg {
  std::uint64_t cfgHash = 0;    // Welcome echo — config compatibility check
  std::uint32_t clientTag = 0;  // echoed verbatim in JobResult/Busy
  std::uint32_t timeoutMs = 0;  // 0 = no per-job deadline
  std::uint8_t byHash = 0;
  std::uint64_t sourceHash = 0;  // byHash == 1
  std::string source;            // byHash == 0
};
void encodeSubmit(const SubmitMsg& m, std::vector<std::uint8_t>& out);
bool decodeSubmit(const std::uint8_t* p, std::size_t n, SubmitMsg& m);
void encodeCacheRef(const SubmitMsg& m, std::vector<std::uint8_t>& out);
bool decodeCacheRef(const std::uint8_t* p, std::size_t n, SubmitMsg& m);

/// A finished (or failed) job. Array results are expanded to shape +
/// elements on the wire — an ArrayId is a handle into the *job's* machine,
/// which is gone by the time the client reads this.
struct JobResultMsg {
  struct OutArray {
    std::uint8_t present = 0;  // 0: the result slot is a scalar (or unset)
    std::uint8_t rank = 1;
    std::int64_t dim0 = 0;
    std::int64_t dim1 = 1;
    std::vector<Value> elems;
  };
  std::uint32_t clientTag = 0;
  std::uint32_t jobId = 0;
  std::uint8_t ok = 0;
  std::uint8_t cacheHit = 0;
  std::uint64_t sourceHash = 0;  // the compiled handle for future CacheRefs
  double wallMs = 0;
  std::string error;
  std::vector<std::uint8_t> resultSet;  // parallel to results
  std::vector<Value> results;
  std::vector<OutArray> arrays;  // parallel to results
  std::vector<std::pair<std::string, std::int64_t>> counters;  // job.<id>.*
};
void encodeJobResult(const JobResultMsg& m, std::vector<std::uint8_t>& out);
bool decodeJobResult(const std::uint8_t* p, std::size_t n, JobResultMsg& m);

/// Structured admission rejection: the in-flight executors and the wait
/// queue are both full. Clients are expected to back off and resubmit.
struct BusyMsg {
  std::uint32_t clientTag = 0;
  std::uint32_t inflight = 0;
  std::uint32_t queued = 0;
  std::uint32_t maxInflight = 0;
  std::uint32_t maxQueue = 0;
};
void encodeBusy(const BusyMsg& m, std::vector<std::uint8_t>& out);
bool decodeBusy(const std::uint8_t* p, std::size_t n, BusyMsg& m);

// Single-u64 payloads (BootAck hash echo, LogAck upTo, Poll statusSeq).
void encodeU64(std::uint64_t v, std::vector<std::uint8_t>& out);
bool decodeU64(const std::uint8_t* p, std::size_t n, std::uint64_t& v);
// Single-u16 payload (PortAnnounce).
void encodeU16(std::uint16_t v, std::vector<std::uint8_t>& out);
bool decodeU16(const std::uint8_t* p, std::size_t n, std::uint16_t& v);

}  // namespace ctl
}  // namespace proto
}  // namespace pods
