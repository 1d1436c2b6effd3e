// The I-structure cell store behind `--store=local`, for threads and worker
// processes alike.
//
// The paper's Array Manager keeps array memory as a presence bit plus a
// deferred-read list per element (§5.1), in structure memory separate from
// the PEs. This store is that memory as one mapping of lock-free cells:
//   * an in-process run takes a mapping from a process-wide pool of
//     anonymous regions; the previous run left it zeroed on release, which
//     costs far less than faulting fresh pages in for every job;
//   * a multi-process run shares one unnamed memfd that the supervisor
//     creates and every worker inherits at a fixed fd number. A `kill -9`'d
//     worker loses its frames and parks but not the cells, so a respawned
//     incarnation that maps the same fd finds every element written before
//     the kill (the segment restore of recovery).
//
// Array table: ids are minted per PE as seq * numPes + pe, and only the
// minting PE creates an id's entry, so the table is indexed by (pe, seq)
// through a directory of fixed-size chunks — dense per PE whatever the
// allocation skew, with no hashing and no cap below the per-PE chunk count.
//
// Cell protocol. Each element is {bits, state}:
//   state == 0            absent, nobody parked
//   state == node offset  absent, parked readers in a Treiber stack
//   state == kFull | tag  present; bits holds the payload
// A writer stores bits, then CASes state to kFull|tag and takes the list it
// replaced. A reader parks with a CAS that pushes its node onto the list and
// fails once the state is full, and then reads the value instead. One word
// orders every park against the fill, so parks are exact: each park is in
// the list the filling write takes and is returned by it exactly once, or
// it is refused and the reader has the value. No writer wakes a reader that
// already has the value, and there is no re-check race. A push first scans
// the list for its own continuation, so a read replayed after a kill finds
// the park its earlier incarnation left instead of parking twice.
//
// Recovery: a worker process killed after its fill but before its wake
// tokens left took the parked list with it. Nothing is re-drained; the
// readers' workers re-read the elements they still wait on when idle (the
// park sweeper in native_machine.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/array_layout.hpp"
#include "runtime/value.hpp"

namespace pods::native {

class ShmStore;

/// Destroys a store, or resets a pooled in-process one and returns it to
/// the pool.
struct ShmStoreDeleter {
  void operator()(ShmStore* s) const;
};
using ShmStorePtr = std::unique_ptr<ShmStore, ShmStoreDeleter>;

class ShmStore {
 public:
  ~ShmStore();
  ShmStore(const ShmStore&) = delete;
  ShmStore& operator=(const ShmStore&) = delete;

  /// In-process runs: an empty store from the process-wide pool.
  static ShmStorePtr acquireLocal(int numPes, std::string* err);
  /// Multi-process supervisor: a fresh memfd-backed store; fd() is what
  /// every worker inherits.
  static ShmStorePtr createShared(int numPes, std::string* err);
  /// Worker process: maps the store behind an inherited fd.
  static ShmStorePtr attach(int fd, std::string* err);

  int fd() const { return fd_; }

  /// A resolved array: shape plus the element-cell base. Cheap to copy;
  /// valid for the life of the mapping.
  struct ArrayRef {
    ArrayShape shape{};
    std::uint64_t cellsOff = 0;  // offset of the first cell in the mapping
    bool valid() const { return cellsOff != 0; }
  };

  /// Idempotent create-or-lookup, called only by the PE that minted `id`:
  /// a replayed ALLOC gets the same ArrayRef and the elements written
  /// before the kill. !valid() when the store is out of space.
  ArrayRef createArray(ArrayId id, const ArrayShape& shape);
  /// Lookup only: !valid() when `id` has not been created.
  ArrayRef lookup(ArrayId id) const;

  /// Non-blocking element read. True + value when present.
  bool tryRead(const ArrayRef& a, std::int64_t off, Value* out) const;

  enum class Read : std::uint8_t { Present, Parked, OutOfSpace };
  /// Split-phase read: the value when present, else `packedCont` parks on
  /// the element until the write that fills it returns it.
  Read readOrPark(const ArrayRef& a, std::int64_t off,
                  std::uint64_t packedCont, Value* out);

  enum class Write : std::uint8_t {
    Filled,    // this write set the element; `woken` holds its parks
    Rewrite,   // the element already held exactly this value
    Conflict,  // it held, or a racing write set, another value
  };
  /// Single-assignment write. Appends the continuations parked on the
  /// element to `woken` when this write is the one that fills it.
  Write write(const ArrayRef& a, std::int64_t off, const Value& v,
              std::vector<std::uint64_t>* woken);

  /// Post-run gather: all elements of `a` (absent ones Tag::Empty).
  void gather(const ArrayRef& a, std::vector<Value>* out) const;

 private:
  friend struct ShmStoreDeleter;
  struct Entry;
  ShmStore() = default;
  bool map(int fd, std::uint64_t bytes, std::string* err);
  void init(int numPes);
  void reset();
  std::uint64_t alloc(std::uint64_t bytes) const;
  Entry* entryFor(ArrayId id, bool install) const;

  std::uint8_t* base_ = nullptr;
  std::uint64_t size_ = 0;
  int fd_ = -1;
  bool pooled_ = false;
};

}  // namespace pods::native
