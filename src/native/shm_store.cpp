#include "native/shm_store.hpp"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace pods::native {

namespace {

constexpr std::uint64_t kMagic = 0x504F445343454C31ULL;  // "PODSCEL1"
constexpr std::uint64_t kMaxPes = 256;
constexpr std::uint64_t kChunkEntries = 1024;  // table entries per chunk
constexpr std::uint64_t kChunksPerPe = 4096;   // so 4M arrays per PE
constexpr std::uint64_t kDirOff = 4096;
// Directory slot (chunk, pe) lives at chunk * kMaxPes + pe: a run touches
// only the first rows, whatever its PE count.
constexpr std::uint64_t kDataOff = kDirOff + kChunksPerPe * kMaxPes * 8;
// Address space reserved per store; pages cost memory only once touched.
// Holds the largest array ALLOC accepts (2^26 cells) several times over.
constexpr std::uint64_t kRegionBytes = 4ull << 30;
constexpr std::uint64_t kMinRegionBytes = 64ull << 20;
// A released in-process store re-zeroes what its run touched, up to this
// much; past it, the pages go back to the kernel instead.
constexpr std::uint64_t kKeepBytes = 16ull << 20;
constexpr std::size_t kMaxIdleStores = 8;
constexpr std::uint64_t kFull = 1ULL << 63;

struct Header {
  std::uint64_t magic;
  std::uint64_t size;
  std::uint64_t numPes;
  std::atomic<std::uint64_t> bump;        // next free data byte (8-aligned)
  std::atomic<std::uint64_t> chunkRows;   // directory rows installed so far
};

struct Cell {
  std::atomic<std::uint64_t> bits;
  std::atomic<std::uint64_t> state;  // 0, parked-list head, or kFull | tag
};

struct WaitNode {
  std::uint64_t next;  // offset of the next node, 0 = end
  std::uint64_t cont;  // packed continuation of the parked reader
};

static_assert(sizeof(Header) <= kDirOff, "header must fit the first page");
static_assert(sizeof(Cell) == 16, "cell layout");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cell atomics must be lock-free across processes");

/// Idle in-process stores. Leaked on purpose: a machine destroyed during
/// static destruction can still return its store.
struct Pool {
  std::mutex m;
  std::vector<ShmStore*> idle;
};
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

}  // namespace

struct ShmStore::Entry {
  std::atomic<std::uint32_t> ready;
  std::uint32_t rank;
  std::int64_t dim0;
  std::int64_t dim1;
  std::uint64_t cellsOff;
};

namespace {

Header* header(std::uint8_t* base) { return reinterpret_cast<Header*>(base); }
Cell& cellAt(std::uint8_t* base, const ShmStore::ArrayRef& a,
             std::int64_t off) {
  return reinterpret_cast<Cell*>(base + a.cellsOff)[off];
}
WaitNode* nodeAt(std::uint8_t* base, std::uint64_t off) {
  return reinterpret_cast<WaitNode*>(base + off);
}

}  // namespace

void ShmStoreDeleter::operator()(ShmStore* s) const {
  if (s->pooled_) {
    s->reset();
    Pool& p = pool();
    std::lock_guard<std::mutex> g(p.m);
    if (p.idle.size() < kMaxIdleStores) {
      p.idle.push_back(s);
      return;
    }
  }
  delete s;
}

ShmStore::~ShmStore() {
  if (base_ != nullptr) ::munmap(base_, size_);
  if (fd_ >= 0) ::close(fd_);
}

bool ShmStore::map(int fd, std::uint64_t bytes, std::string* err) {
  void* p = fd >= 0 ? ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_SHARED, fd, 0)
                    : ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                             0);
  if (p == MAP_FAILED) {
    if (err) *err = std::string("cell store mmap: ") + std::strerror(errno);
    return false;
  }
  base_ = static_cast<std::uint8_t*>(p);
  size_ = bytes;
  return true;
}

void ShmStore::init(int numPes) {
  Header* h = header(base_);
  h->size = size_;
  h->numPes = static_cast<std::uint64_t>(numPes);
  h->bump.store(kDataOff, std::memory_order_relaxed);
  h->chunkRows.store(0, std::memory_order_relaxed);
  h->magic = kMagic;
}

void ShmStore::reset() {
  Header* h = header(base_);
  const std::uint64_t rows = h->chunkRows.load(std::memory_order_relaxed);
  std::memset(base_ + kDirOff, 0, rows * kMaxPes * 8);
  const std::uint64_t used =
      std::min(h->bump.load(std::memory_order_relaxed), size_) - kDataOff;
  if (used <= kKeepBytes ||
      ::madvise(base_ + kDataOff, used, MADV_DONTNEED) != 0)
    std::memset(base_ + kDataOff, 0, used);
}

ShmStorePtr ShmStore::acquireLocal(int numPes, std::string* err) {
  ShmStore* s = nullptr;
  {
    Pool& p = pool();
    std::lock_guard<std::mutex> g(p.m);
    if (!p.idle.empty()) {
      s = p.idle.back();
      p.idle.pop_back();
    }
  }
  if (s == nullptr) {
    s = new ShmStore();
    s->pooled_ = true;
    // Strict overcommit accounts a private mapping in full: settle for
    // less address space rather than fail the run.
    bool mapped = false;
    for (std::uint64_t bytes = kRegionBytes;
         !mapped && bytes >= kMinRegionBytes; bytes /= 2)
      mapped = s->map(-1, bytes, err);
    if (!mapped) {
      delete s;
      return nullptr;
    }
  }
  s->init(numPes);
  return ShmStorePtr(s);
}

ShmStorePtr ShmStore::createShared(int numPes, std::string* err) {
  ShmStorePtr s(new ShmStore());
  s->fd_ = ::memfd_create("pods-cells", MFD_CLOEXEC);
  if (s->fd_ < 0) {
    if (err) *err = std::string("memfd_create: ") + std::strerror(errno);
    return nullptr;
  }
  if (::ftruncate(s->fd_, static_cast<off_t>(kRegionBytes)) != 0) {
    if (err)
      *err = std::string("cell store ftruncate: ") + std::strerror(errno);
    return nullptr;
  }
  if (!s->map(s->fd_, kRegionBytes, err)) return nullptr;
  s->init(numPes);
  return s;
}

ShmStorePtr ShmStore::attach(int fd, std::string* err) {
  ShmStorePtr s(new ShmStore());
  s->fd_ = fd;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    if (err) *err = std::string("cell store fstat: ") + std::strerror(errno);
    return nullptr;
  }
  const auto bytes = static_cast<std::uint64_t>(st.st_size);
  if (!s->map(fd, bytes, err)) return nullptr;
  const Header* h = header(s->base_);
  if (h->magic != kMagic || h->size != bytes) {
    if (err) *err = "cell store header mismatch (wrong fd?)";
    return nullptr;
  }
  return s;
}

std::uint64_t ShmStore::alloc(std::uint64_t bytes) const {
  bytes = (bytes + 7) & ~std::uint64_t{7};
  const std::uint64_t off =
      header(base_)->bump.fetch_add(bytes, std::memory_order_relaxed);
  return off + bytes <= size_ ? off : 0;
}

ShmStore::Entry* ShmStore::entryFor(ArrayId id, bool install) const {
  const std::uint64_t numPes = header(base_)->numPes;
  const std::uint64_t pe = id % numPes;
  const std::uint64_t seq = id / numPes;
  const std::uint64_t chunk = seq / kChunkEntries;
  if (chunk >= kChunksPerPe) return nullptr;
  auto* slot = reinterpret_cast<std::atomic<std::uint64_t>*>(
      base_ + kDirOff + (chunk * kMaxPes + pe) * 8);
  std::uint64_t off = slot->load(std::memory_order_acquire);
  if (off == 0) {
    if (!install) return nullptr;
    const std::uint64_t fresh = alloc(kChunkEntries * sizeof(Entry));
    if (fresh == 0) return nullptr;
    // Only the minting PE installs its chunks; the CAS just keeps a
    // respawned incarnation from replacing one its predecessor published.
    if (slot->compare_exchange_strong(off, fresh, std::memory_order_acq_rel))
      off = fresh;
    std::atomic<std::uint64_t>& rows = header(base_)->chunkRows;
    std::uint64_t cur = rows.load(std::memory_order_relaxed);
    while (cur < chunk + 1 &&
           !rows.compare_exchange_weak(cur, chunk + 1,
                                       std::memory_order_relaxed)) {
    }
  }
  return reinterpret_cast<Entry*>(base_ + off) + seq % kChunkEntries;
}

ShmStore::ArrayRef ShmStore::createArray(ArrayId id, const ArrayShape& shape) {
  static_assert(sizeof(Entry) == 32, "table entry layout");
  Entry* e = entryFor(id, /*install=*/true);
  if (e == nullptr) return {};
  if (e->ready.load(std::memory_order_acquire) == 0) {
    const std::uint64_t cells = alloc(
        static_cast<std::uint64_t>(shape.numElems()) * sizeof(Cell));
    if (cells == 0) return {};
    e->rank = static_cast<std::uint32_t>(shape.rank);
    e->dim0 = shape.dim0;
    e->dim1 = shape.dim1;
    e->cellsOff = cells;
    e->ready.store(1, std::memory_order_release);
  }
  return lookup(id);
}

ShmStore::ArrayRef ShmStore::lookup(ArrayId id) const {
  const Entry* e = entryFor(id, /*install=*/false);
  if (e == nullptr || e->ready.load(std::memory_order_acquire) == 0) return {};
  ArrayRef a;
  a.shape.rank = static_cast<int>(e->rank);
  a.shape.dim0 = e->dim0;
  a.shape.dim1 = e->dim1;
  a.cellsOff = e->cellsOff;
  return a;
}

bool ShmStore::tryRead(const ArrayRef& a, std::int64_t off, Value* out) const {
  const Cell& c = cellAt(base_, a, off);
  const std::uint64_t s = c.state.load(std::memory_order_acquire);
  if ((s & kFull) == 0) return false;
  out->tag = static_cast<Tag>(s & 0xFF);
  out->bits = c.bits.load(std::memory_order_relaxed);
  return true;
}

ShmStore::Read ShmStore::readOrPark(const ArrayRef& a, std::int64_t off,
                                    std::uint64_t packedCont, Value* out) {
  Cell& c = cellAt(base_, a, off);
  std::uint64_t s = c.state.load(std::memory_order_acquire);
  std::uint64_t scanned = 0;  // list suffix already searched for packedCont
  std::uint64_t node = 0;
  while ((s & kFull) == 0) {
    for (std::uint64_t n = s; n != scanned; n = nodeAt(base_, n)->next)
      if (nodeAt(base_, n)->cont == packedCont) return Read::Parked;
    scanned = s;
    if (node == 0) {
      node = alloc(sizeof(WaitNode));
      if (node == 0) return Read::OutOfSpace;
      nodeAt(base_, node)->cont = packedCont;
    }
    nodeAt(base_, node)->next = s;
    if (c.state.compare_exchange_weak(s, node, std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      return Read::Parked;
  }
  // Present (a node allocated before the fill won stays unused).
  out->tag = static_cast<Tag>(s & 0xFF);
  out->bits = c.bits.load(std::memory_order_relaxed);
  return Read::Present;
}

ShmStore::Write ShmStore::write(const ArrayRef& a, std::int64_t off,
                                const Value& v,
                                std::vector<std::uint64_t>* woken) {
  Cell& c = cellAt(base_, a, off);
  std::uint64_t s = c.state.load(std::memory_order_acquire);
  if ((s & kFull) != 0) {
    return static_cast<Tag>(s & 0xFF) == v.tag &&
                   c.bits.load(std::memory_order_relaxed) == v.bits
               ? Write::Rewrite
               : Write::Conflict;
  }
  c.bits.store(v.bits, std::memory_order_relaxed);
  const std::uint64_t full = kFull | static_cast<std::uint64_t>(v.tag);
  while (!c.state.compare_exchange_weak(s, full, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    // Two writers raced for one element: single assignment is already
    // broken, and the loser's bits may have overwritten the winner's.
    if ((s & kFull) != 0) return Write::Conflict;
  }
  for (std::uint64_t n = s; n != 0; n = nodeAt(base_, n)->next)
    woken->push_back(nodeAt(base_, n)->cont);
  return Write::Filled;
}

void ShmStore::gather(const ArrayRef& a, std::vector<Value>* out) const {
  const std::int64_t n = a.shape.numElems();
  out->assign(static_cast<std::size_t>(n), Value{});
  for (std::int64_t i = 0; i < n; ++i)
    tryRead(a, i, &(*out)[static_cast<std::size_t>(i)]);
}

}  // namespace pods::native
