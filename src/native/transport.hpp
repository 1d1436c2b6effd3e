// Pluggable cross-PE token transport for the native runtime.
//
// The native machine's workers never touch each other's frames; the only
// cross-PE traffic is tokens. This seam — between `enqueue` (which charges
// the quiescence ledger) and the destination worker's inbox — is where the
// paper's target machine differs from a shared-memory host: on an iPSC/2
// the hop is a real network message. Two transports implement the seam:
//
//  - InboxTransport (default): the original in-process path. Without fault
//    injection a send is a push onto the destination's SPSC inbox ring; with
//    it, the send goes through the seeded unreliable-network shim plus a
//    wall-clock retransmit daemon (exponential backoff), and the receiving
//    worker suppresses duplicates by msgId — the one transport where the
//    workers keep that ledger.
//  - UdpTransport: the paper's Routing Unit over real sockets. Each PE it
//    serves owns a UDP socket on 127.0.0.1 — all N PEs in-process
//    (`--transport=udp`, sockets bound here), or the one PE of a forked
//    worker (`--transport=udp-multiproc`, socket bound by the supervisor and
//    inherited). Tokens for one destination coalesce into MTU-sized batch
//    datagrams (flushed when full or when the sending worker's loop comes
//    around). UDP may drop, duplicate, or reorder even on loopback, so this
//    transport ALWAYS runs a reliable-delivery protocol: each (src,dst) link
//    numbers its tokens with a dense sequence, the receiver answers with
//    cumulative acks (highest contiguous seq + selective bitmap), unacked
//    tokens are retransmitted with exponential backoff (riding later batches,
//    keeping their original msgId), and the receiver suppresses duplicates by
//    link sequence before they reach the inbox. FaultPlan injection composes
//    at the datagram level (batch sends AND acks roll the seeded dice), so
//    `--faults=drop/dup/delay` specs and kill recovery work unchanged over
//    real sockets. Both modes put the same two epoch-stamped datagram types
//    on the socket (see the wire format below), and both run one service
//    thread per process: it receives, acks and deposits, and between drains
//    it runs the retransmit and fault-delay deadlines.
//
// Quiescence contract: the machine charges `pending`/`inboxTokens` once per
// logical token at send time, and the charges are released only when the
// destination worker drains the token from its inbox. A token parked in a
// retransmit queue or sitting in a kernel socket buffer therefore still
// reads as in-flight work — the counting termination/deadlock protocol
// stays exact with no transport-specific cases. Duplicate copies never
// carry charges of their own on the UDP path (they are dropped at the
// transport before the inbox); on the inbox path an injected duplicate is
// charged explicitly via `chargeDuplicate` and consumed by the receiver's
// dedup, exactly as before this interface existed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "native/store.hpp"
#include "runtime/value.hpp"
#include "support/fault.hpp"
#include "support/recovery.hpp"
#include "support/stats.hpp"

namespace pods::native {

/// Which cross-PE transport the native machine uses.
enum class TransportKind : std::uint8_t {
  Inbox,  // in-process SPSC inbox rings (default; behavior-unchanged)
  Udp,    // per-PE UDP loopback sockets, ack/retransmit reliable delivery
  UdpMultiproc,  // PEs are forked worker processes; same UDP batch wire,
                 // sockets bound by (and inherited from) the supervisor
};

/// Parses a `podsc --transport=` value ("inbox", "udp", "udp-multiproc").
bool parseTransportKind(const std::string& name, TransportKind& out);
const char* transportKindName(TransportKind kind);

/// Longest run of page offsets one page-run message covers. A page of up to
/// this many elements ships as one message; a larger one (NativeConfig's
/// pageElems goes up to kMaxPageElems) as one message per run of this many
/// offsets that holds a present element. Sized so a run's wire record fits
/// one batch datagram on its own (kPageRecordMaxBytes).
constexpr int kPageRunMaxElems = 128;

/// The payload of a page-run message (AmKind::PageRun, native/store.hpp):
/// the present elements among `span` consecutive offsets of one page,
/// starting at `first`. Bit i of `mask` marks offset first + i present;
/// `vals` holds the `count` present values in offset order. Immutable once
/// sent, so every copy of the message shares one payload.
struct PageRun {
  std::uint32_t first = 0;
  std::uint16_t span = 0;
  std::uint16_t pageElems = 0;  // the owner's page size; a run stays in one
  std::uint16_t count = 0;
  std::array<std::uint64_t, kPageRunMaxElems / 64> mask{};
  std::array<Value, kPageRunMaxElems> vals{};

  bool has(int i) const { return (mask[i / 64] >> (i % 64)) & 1; }
  /// Appends present element `off` (first <= off < first +
  /// kPageRunMaxElems, above every element added so far).
  void add(std::int64_t off, const Value& v) {
    const int i = static_cast<int>(off - first);
    mask[i / 64] |= std::uint64_t{1} << (i % 64);
    vals[count++] = v;
    span = static_cast<std::uint16_t>(i + 1);
  }
};

/// A cross-PE token (the native machine's only inter-worker message). The
/// small fields lead so the struct packs: with the page-run payload pointer
/// a token takes 96 bytes, and every token copies them.
struct NToken {
  bool toCont = false;
  bool add = false;
  /// Wire array store: nonzero marks this token as a typed array message
  /// (AmKind in native/store.hpp) with the field reuse documented there.
  /// Array messages ride the same batch datagrams, sequence windows, acks,
  /// and fault dice as ordinary tokens.
  std::uint8_t amKind = 0;
  /// The sending process's incarnation, stamped from the batch header by
  /// wireDecodeBatch (not part of any record). Rides to the drain so the
  /// ack for this token is attributed to the right sender incarnation.
  std::uint8_t epoch = 0;
  std::uint16_t spCode = 0;
  std::uint16_t slot = 0;
  Cont cont{};
  std::uint64_t ctx = 0;
  Value v{};
  /// Unique id of this cross-worker message (assigned by the transport;
  /// nonzero whenever the transport can duplicate, so the receiver can
  /// suppress copies). Shared by every copy of one logical message.
  std::uint64_t msgId = 0;
  /// Kill mode: logical send identity of SENDC/ADDC tokens — stable under
  /// sender re-execution, unlike msgId (a replayed send is a new message).
  std::uint64_t senderCtx = 0;
  std::uint64_t sendKey = 0;
  /// Kill mode: nonzero marks an array-element wake-up; encodes the element
  /// so the receiver can drop wakes for parks wiped by its own kill.
  std::uint64_t wakeKey = 0;
  /// AmKind::PageRun only: the run's elements; null on every other token.
  std::shared_ptr<const PageRun> page;
};
static_assert(sizeof(NToken) <= 96, "NToken grew: every token copies it");

/// Machine-side callbacks the transports deliver into. Implemented by the
/// native machine; all methods are safe to call from any transport thread.
class TransportSink {
 public:
  virtual ~TransportSink() = default;
  /// Hands a token to the destination PE's inbox. The token's quiescence
  /// charges were made at send time and ride along untouched.
  ///
  /// `lane` selects the destination's SPSC inbox ring and must identify the
  /// calling thread uniquely per destination: sending worker threads pass
  /// their own PE id (lanes 0..numPes-1); a transport's service thread (the
  /// inbox retransmit daemon, or the UDP transport's one thread) passes
  /// numPes. The single-producer invariant is what lets the ring run
  /// lock-free.
  virtual void deposit(int pe, int lane, NToken tok) = 0;
  /// Charges one extra in-flight token: an injected duplicate copy that
  /// will reach the inbox and be consumed by the receiver's msgId dedup.
  virtual void chargeDuplicate() = 0;
  /// Fatal transport error (reliable delivery gave up): fails the run.
  virtual void transportFail(const std::string& msg) = 0;
};

/// Worker-process side of the supervisor control channel (multi-process
/// mode only). The machine and transport append recovery-log records and
/// mints through this seam; the procmgr worker loop ships them to the
/// supervisor and advances the stable watermark on LogAck. `logAppended`
/// and `logStable` index ONE interleaved stream of entries+mints — the
/// output-commit rules (ack gating, flush gating) compare against these
/// stream positions, not the machine's own log indexes.
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;
  /// Append a receive-log record to the stream; returns its 1-based seq.
  virtual std::uint64_t logEntry(const RecEntry& e) = 0;
  /// Append a NEWCTX/ALLOC mint record to the stream; returns its seq.
  virtual std::uint64_t logMint(std::uint64_t ctx, std::uint32_t seq,
                                const Value& v, std::uint64_t ctxCounter) = 0;
  /// Append a program RESULT store. Result slots live in process-local
  /// memory (unlike array writes, which survive in shm), so they must be in
  /// the log or a kill after the storing frame retires loses them forever.
  virtual std::uint64_t logResult(std::uint32_t slot, const Value& v) = 0;
  /// Records appended so far (stream length).
  virtual std::uint64_t logAppended() const = 0;
  /// Longest stream prefix the supervisor has acknowledged as stable.
  virtual std::uint64_t logStable() const = 0;
  /// Blocks until the supervisor's Start frame (false: aborted before it).
  virtual bool waitStart() = 0;
};

/// One cross-PE transport. Lifecycle: start() before worker threads exist,
/// send() from any worker/daemon thread while running, stop() after every
/// worker has joined (so no send() can race it), addStats() after stop().
class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* name() const = 0;
  /// Binds sockets / starts service threads. False + `err` on failure.
  virtual bool start(std::string* err) = 0;
  /// Asynchronously moves one token from `fromPe` toward `toPe`'s inbox.
  /// The caller has already charged the quiescence ledger for one copy.
  /// Batching transports may park the token in a per-link outbox; the
  /// charge keeps it visible to the quiescence protocol until drained.
  virtual void send(int fromPe, int toPe, NToken tok) = 0;
  /// Ships any tokens coalescing in `fromPe`'s outboxes. The sending
  /// worker calls this every few slices while busy and again after its last
  /// inbox drain before it sleeps, so every path from a send to a cv-wait
  /// passes a flush. That makes the worker loop the only flusher a batching
  /// transport needs: no deadline ships a partial batch. No-op by default.
  virtual void flush(int fromPe) { (void)fromPe; }
  /// Stops service threads. Tokens still parked in retransmit queues at
  /// stop() were already either delivered (late acks) or the run failed.
  virtual void stop() = 0;
  /// Reports transport counters ("net.*" / "fault.*" namespaces), including
  /// the per-(src,dst) link breakdown used by `podsc --stats`.
  virtual void addStats(Counters& out) const = 0;

  // ---- Multi-process hooks (only a multi-process worker calls these) ---
  /// Output commit for acks: the worker thread drained msgId from its inbox
  /// and its Recv record is stream position `logSeq`. The ack for this
  /// sequence may go out only once logStable() >= logSeq.
  virtual void noteDrained(std::uint64_t msgId, std::uint8_t epoch,
                           std::uint64_t logSeq) {
    (void)msgId;
    (void)epoch;
    (void)logSeq;
  }
  /// Sends any acks whose Recv records have become stable.
  virtual void pumpAcks() {}
  /// The stable watermark advanced (LogAck): retry gated flushes + acks.
  virtual void onStableAdvance() {}
  /// Unacked + outbox-buffered sends (termination Status snapshot).
  virtual std::int64_t outstanding() const { return 0; }
  /// Respawn rebuild: re-records a wire-accepted inbound msgId (received
  /// under sender incarnation `epoch`) into the receive-dedup and ackable
  /// windows (replaying a Recv log record). Called before start().
  virtual void primeRecv(std::uint64_t msgId, std::uint8_t epoch) {
    (void)msgId;
    (void)epoch;
  }
  /// END-retire barrier: snapshot per-destination send-sequence high-water
  /// (indexed by dst PE) at the moment a frame retires...
  virtual void barrierSnapshot(std::vector<std::uint64_t>& out) {
    out.clear();
  }
  /// ...and true once every send at or below the snapshot is acked (the
  /// frame's End record may then enter the log).
  virtual bool barrierPassed(const std::vector<std::uint64_t>& snap) {
    (void)snap;
    return true;
  }
};

/// A multi-process worker's UDP endpoint: the one PE it serves, the socket
/// the supervisor bound for it (the supervisor keeps its own copy, so the
/// port and any buffered datagrams survive this process), every PE's
/// loopback port, this process's incarnation, and the control-channel link
/// whose stable watermark gates its acks and flushes. A respawn boots with
/// epoch+1 and renumbers all links from 1; receivers reset their per-link
/// windows when they first see a higher epoch from a source.
struct UdpWorkerEndpoint {
  int pe = -1;
  int sockFd = -1;
  std::vector<std::uint16_t> peerPorts;
  std::uint8_t epoch = 0;
  WorkerLink* link = nullptr;
};

/// Builds the transport for `kind`. Inbox and Udp serve all `numPes` PEs of
/// this process; UdpMultiproc needs `worker` and serves its one PE.
std::unique_ptr<Transport> makeTransport(
    TransportKind kind, TransportSink& sink, const FaultPlan& plan, int numPes,
    const UdpWorkerEndpoint* worker = nullptr);

/// Binds `n` UDP sockets to ephemeral 127.0.0.1 ports, close-on-exec. The
/// in-process UDP transport binds its PEs' sockets with it, and the
/// multi-process supervisor binds its workers' sockets with it.
/// All-or-nothing: on failure every socket made so far is closed, `fds` and
/// `ports` are left empty, and `err` names the failing call.
bool bindLoopbackUdp(int n, std::vector<int>& fds,
                     std::vector<std::uint16_t>& ports, std::string* err);

// ---- Wire format -----------------------------------------------------------
// A UDP datagram is one of two types, both stamped with the incarnation
// (epoch) of the process the stream belongs to — always 0 in-process:
//
//   batch  6-byte header (type, srcPe u16, count u16, epoch u8) followed by
//          `count` records back to back, kBatchMaxBytes in all at most;
//   ack    20 bytes (type, ackerPe u16, cum u64, bitmap u64, epoch u8).
//
// A batch record opens with its kind byte and carries one message:
//
//   token  kind 1, 65 bytes: one NToken, field by field;
//   page   kind 2, one page run (AmKind::PageRun), variable length:
//            kind u8, flags u8 (0), srcPe u16, len u16, span u16,
//            pageElems u16, count u16, array id u32, first u32, msgId u64
//          — kPageRecordFixedBytes — then the presence mask, ceil(span/8)
//          bytes with bit i (byte i/8, bit i%8) for offset first + i, then
//          `count` values of kPageValueBytes (tag u8, bits u64). `len` is
//          the whole record, kPageRecordMaxBytes at most.
//
// Records vary in size, so batching counts bytes: an outbox
// flushes when the next record would not fit, and is full (flushed at once;
// acked lazily by the receiver) when one more token record would not fit
// (wireBatchFull). Any other datagram is malformed. The transport encodes
// and decodes through these functions only.

/// One token record: encode/decode round-trip every field bit-exactly.
constexpr std::size_t kTokenWireBytes = 65;
void wireEncodeToken(const NToken& tok, std::uint16_t srcPe,
                     std::uint8_t out[kTokenWireBytes]);
bool wireDecodeToken(const std::uint8_t* data, std::size_t len, NToken& tok,
                     std::uint16_t* srcPe);

/// One page record.
constexpr std::size_t kPageRecordFixedBytes = 28;
constexpr std::size_t kPageValueBytes = 9;
constexpr std::size_t kPageRecordMaxBytes =
    kPageRecordFixedBytes + kPageRunMaxElems / 8 +
    kPageRunMaxElems * kPageValueBytes;

/// Batch datagrams are sized to a common 1400-byte MTU budget: 21 token
/// records, or fewer records when page records ride along.
constexpr std::size_t kBatchHeaderBytes = 6;
constexpr std::size_t kBatchMaxBytes = 1400;
constexpr std::size_t kBatchRecordBytes = kBatchMaxBytes - kBatchHeaderBytes;
constexpr int kBatchMaxTokens =
    static_cast<int>(kBatchRecordBytes / kTokenWireBytes);
static_assert(kPageRecordMaxBytes <= kBatchRecordBytes,
              "a page record must fit a batch on its own");

/// True when a batch whose records take `recordBytes` cannot take one more
/// token record: the sender ships such an outbox at once, and the receiver
/// acks every batch that is not full at once (it ends a burst).
constexpr bool wireBatchFull(std::size_t recordBytes) {
  return recordBytes + kTokenWireBytes > kBatchRecordBytes;
}

/// Bytes `tok` takes as a batch record: a token record, or the page record
/// of an AmKind::PageRun message.
std::size_t wireRecordBytes(const NToken& tok);
/// Encodes `tok` as the record wireRecordBytes sized; returns its length.
std::size_t wireEncodeRecord(const NToken& tok, std::uint16_t srcPe,
                             std::uint8_t* out);

/// Writes the header of a batch whose `count` records, `recordBytes` in
/// all, already sit at `out + kBatchHeaderBytes`; returns the datagram
/// length.
std::size_t wireEncodeBatchHeader(std::uint8_t* out, std::uint16_t srcPe,
                                  int count, std::size_t recordBytes,
                                  std::uint8_t epoch);

/// Decodes a batch datagram into `out`, stamping every token's `epoch` from
/// the header. All-or-nothing: a wrong type byte, a datagram over
/// kBatchMaxBytes, a count that disagrees with the records, a truncated
/// record, trailing junk, an unknown record kind, a malformed record, or a
/// record whose srcPe disagrees with the header rejects the whole datagram
/// (returns false, `out` left empty). A page record is malformed unless its
/// length is exactly what its span and count call for and at most
/// kPageRecordMaxBytes; its mask has exactly `count` bits, none past
/// `span`; its run lies inside one page (1 <= span <= min(pageElems,
/// kPageRunMaxElems), pageElems <= kMaxPageElems) and below
/// kMaxArrayElems; and every value is present and well-tagged.
bool wireDecodeBatch(const std::uint8_t* data, std::size_t len,
                     std::vector<NToken>& out, std::uint16_t* srcPe,
                     std::uint8_t* epoch);

/// Cumulative ack for one (src,dst) link, sent by the destination.
constexpr std::size_t kCumAckWireBytes = 20;
struct WireCumAck {
  std::uint16_t ackerPe = 0;
  std::uint64_t cum = 0;     // highest contiguously received link seq
  std::uint64_t bitmap = 0;  // bit i set: seq cum+1+i received
  /// Incarnation of the acked stream's sender, as the acker knows it: a
  /// reborn sender drops acks for its predecessor's stream, whose seqs
  /// would otherwise retire its fresh renumbered ones.
  std::uint8_t epoch = 0;
};
void wireEncodeCumAck(const WireCumAck& ack,
                      std::uint8_t out[kCumAckWireBytes]);
/// False unless `data` is exactly one well-typed 20-byte ack.
bool wireDecodeCumAck(const std::uint8_t* data, std::size_t len,
                      WireCumAck& ack);

}  // namespace pods::native
