// The native array-store seam: which backend holds I-structure elements.
//
// The paper's Data-Distributed Execution model treats every structure access
// as a message to the owning PE; the simulator models this (`net.arrayMsgs`,
// deferred reads at the Array Manager). The native engine's default takes a
// shortcut: cross-PE ARD/AWR go straight at shared memory, bypassing the
// Transport seam, fault injection, and the batched-UDP/ack machinery. This
// header names the seam that removes the shortcut:
//
//  - LocalStore (default): the lock-free I-structure cell store
//    (native/shm_store.hpp), one code path for threads and processes: the
//    worker threads of an in-process run share a pooled mapping, the
//    worker processes of a multi-process run one inherited memfd. Parks are
//    exact (a park's CAS fails once the element is present), so no write
//    wakes a reader that already has the value and the requester's
//    `myParks` ledger is kept only in recovery mode, as below.
//  - WireStore (`podsc --store=wire`): each PE keeps one record per array
//    it touches — the shape once known, a dense slice over the elements
//    `ArrayLayout`'s page math assigns it (absent = Tag::Empty), each
//    element's parked readers as a FIFO list in a per-PE node pool, and the
//    remote pages it has been sent — and every non-local access the cache
//    cannot answer becomes a typed *array message* (AmKind)
//    riding the existing token wire: the same NTokens, batch
//    datagrams, per-link sequence windows, cumulative acks, retransmit,
//    fault dice, and receive-log replay as ordinary tokens. No shared
//    memory: the layering a remote-host worker needs.
//
// Protocol (owner-serviced, I-structure semantics):
//   ReadReq   requester -> owner   split-phase read. If the element is
//                                  present the owner first sends the
//                                  requester every other present element of
//                                  its page as one PageRun, then the value
//                                  reply, on the same link (the paper's
//                                  page shipment, §4); if absent
//                                  the requester's continuation is parked
//                                  at the owner (deferred read) and filled
//                                  by the eventual write with the value
//                                  alone. The owner need not know the shape
//                                  yet: its slice then spans the offsets
//                                  seen so far and is re-seated on its
//                                  segment once the shape arrives.
//   PageRun   owner     -> requester  the other present elements of the
//                                  page a ReadReq hit, for the requester's
//                                  cache: offset of the first, presence
//                                  mask, values (a PageRun payload, one
//                                  message per kPageRunMaxElems offsets).
//   Write     writer    -> owner   fire-and-forget single-assignment write;
//                                  the owner detects violations and drains
//                                  parked readers into value replies.
//   DimReq    any PE    -> allocator  shape query (allocator = id % numPEs);
//   DimReply  allocator -> requester  rank/dims — fills the requester's
//                                  array record and requeues shape-blocked
//                                  frames.
//   value replies ride the existing array wake-up token (toCont + wakeKey).
//   In recovery mode the requester's `myParks` ledger drops wakes for parks
//   a kill wiped; outside it no duplicate reply can arrive (the transports
//   drop duplicates before delivery), so the ledger is not kept.
//
// Requester page cache: each PE's record of an array also holds one dense
// slice per remote page it has been sent (absent = Tag::Empty), filled by
// page runs, each in one pass, and by value replies; ARD consults it before
// sending a ReadReq.
// Single assignment makes a cached element final, so nothing is ever
// invalidated and no coherence traffic exists. The cache is volatile: like
// DimReply, a PageRun is not logged (a lost run only costs re-reads), a
// respawned worker starts with an empty cache, and an in-process kill
// wipes it. During log replay, page runs are deferred with the value
// replies.
//
// AllocMeta never travels the wire: it is the receive-log record a
// multi-process allocator writes so a respawn can rebuild its shape table
// (and keep answering DimReq) even after the allocating frame retired.
#pragma once

#include <cstdint>
#include <string>

namespace pods::native {

/// Largest array the native engine allocates (ALLOC rejects bigger shapes),
/// so also the bound on any element offset an array message can carry.
inline constexpr int kOffsetBits = 26;
inline constexpr std::int64_t kMaxArrayElems = std::int64_t(1) << kOffsetBits;
/// Largest page the native engine lays arrays out in (NativeConfig's
/// pageElems), so also the bound on the page size a page run can name.
inline constexpr int kMaxPageElems = 4096;

/// Which array-store backend the native machine uses.
enum class StoreKind : std::uint8_t {
  Local,  // lock-free cell store shared by threads or processes; default
  Wire,   // owner-serviced array messages on the token transport
};

/// Parses a `podsc --store=` value ("local", "wire").
bool parseStoreKind(const std::string& name, StoreKind& out);
const char* storeKindName(StoreKind kind);

/// Typed array-message kinds (NToken::amKind), carried in the token
/// record's flag byte (bits 2..4; 0 marks an ordinary token, keeping the
/// wire bit-identical for non-array traffic) — except PageRun, which is a
/// page record of its own. Field reuse on NToken:
///   ctx       = array id                  (all kinds)
///   senderCtx = element offset            (ReadReq / Write);
///               dim0 (DimReply)
///   slot      = requester PE              (ReadReq / DimReq); rank (DimReply)
///   cont      = requester continuation    (ReadReq; its pe is the
///               requester, which the reply and fills go to)
///   v         = element value             (Write); dim1 as Int
///               (DimReply)
///   page      = the run's offsets and values (PageRun; null otherwise)
enum class AmKind : std::uint8_t {
  None = 0,      // not an array message
  ReadReq = 1,   // split-phase read request (park at owner when absent)
  Write = 2,     // single-assignment element write
  DimReq = 3,    // shape query to the allocator
  DimReply = 4,  // shape answer (rank, dim0, dim1)
  PageRun = 5,   // present elements of one run of a read page, for the cache
  AllocMeta = 6, // log-only: allocator's durable (id -> shape) record
};

/// Highest AmKind value a token record may carry: a PageRun travels as its
/// own record kind (native/transport.hpp) and AllocMeta is log-only.
inline constexpr std::uint8_t kMaxWireAmKind = 4;

}  // namespace pods::native
