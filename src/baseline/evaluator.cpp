#include "baseline/evaluator.hpp"

#include <stdexcept>

#include "runtime/ops.hpp"
#include "support/check.hpp"
#include "translate/translator.hpp"

namespace pods::baseline {

using ir::Block;
using ir::BlockKind;
using ir::Item;
using ir::ItemKind;
using ir::kNoVal;
using ir::Node;
using ir::NodeOp;
using ir::ValId;

namespace {

struct EvalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Charging target: SPMD (scalar code executed by every PE) or one PE's
/// portion of a distributed loop.
struct Mode {
  bool spmd = true;
  int pe = 0;
};

class Interp {
 public:
  Interp(const ir::Program& prog, const partition::Plan* plan, int numPEs,
         const sim::Timing& tm)
      : prog_(prog), plan_(plan), numPEs_(numPEs), tm_(tm) {
    clock_.assign(static_cast<std::size_t>(numPEs), SimTime{});
  }

  BaselineResult run() {
    BaselineResult out;
    try {
      const ir::Function& main = prog_.main();
      Env env(main.numVals);
      evalBlockBody(main.body, env, Mode{});
      for (ValId r : main.retVals) out.results.push_back(env.at(r));
      out.ok = true;
    } catch (const EvalError& e) {
      out.ok = false;
      out.error = e.what();
    }
    out.peTime = clock_;
    for (SimTime t : clock_) out.total = std::max(out.total, t);
    out.counters = counters_;
    out.arrays = std::move(heap_);
    return out;
  }

 private:
  struct Env {
    explicit Env(std::uint32_t n) : vals(n) {}
    std::vector<Value> vals;
    Value& at(ValId v) { return vals[v]; }
  };

  // --- cost charging -------------------------------------------------------

  void charge(const Mode& m, SimTime c) {
    if (m.spmd) {
      for (SimTime& t : clock_) t += c;
    } else {
      clock_[static_cast<std::size_t>(m.pe)] += c;
    }
  }

  SimTime localReadCost() const { return tm_.intMul + tm_.intAdd + tm_.memRead; }
  SimTime localWriteCost() const { return tm_.intMul + tm_.intAdd + tm_.memWrite; }
  SimTime loopIterCost() const { return tm_.intCmp + tm_.intAdd + tm_.intAdd; }

  // --- arrays --------------------------------------------------------------

  ArrayId alloc(ArrayShape shape, const Mode& m) {
    if (shape.dim0 < 0 || shape.dim1 < 0 ||
        shape.numElems() > (std::int64_t(1) << 24)) {
      throw EvalError("bad allocation dimensions");
    }
    charge(m, tm_.allocArray);
    const bool dist = plan_ && plan_->distributeArrays;
    heap_.emplace_back(shape, dist, numPEs_, tm_.pageElems);
    counters_.add("array.allocs");
    return static_cast<ArrayId>(heap_.size() - 1);
  }

  BArray& arr(const Value& v) {
    if (!v.isArray() || v.asArray() >= heap_.size())
      throw EvalError("not an array value");
    return heap_[v.asArray()];
  }

  std::int64_t resolveOffset(const BArray& a, std::int64_t i0, std::int64_t i1,
                             int rank) {
    if (rank == 1) {
      if (i0 < 0 || i0 >= a.shape.numElems())
        throw EvalError("array read/write out of bounds");
      return i0;
    }
    if (!a.shape.inBounds(i0, i1))
      throw EvalError("array read/write out of bounds");
    return a.shape.flatten(i0, i1);
  }

  int ownerOf(const BArray& a, std::int64_t offset) const {
    return a.distributed ? a.layout.ownerOfOffset(offset) : 0;
  }

  std::uint64_t fetchKey(ArrayId id, std::int64_t page, int pe) const {
    return (static_cast<std::uint64_t>(id) << 28) ^
           (static_cast<std::uint64_t>(page) << 12) ^
           static_cast<std::uint64_t>(pe);
  }

  /// One PE reads one element under the static availability model.
  Value readOne(ArrayId id, std::int64_t offset, int pe) {
    BArray& a = heap_[id];
    const Value& v = a.elems[static_cast<std::size_t>(offset)];
    if (v.empty()) {
      throw EvalError(
          "read of an element never written (a control-driven schedule "
          "cannot satisfy this dependence)");
    }
    SimTime& t = clock_[static_cast<std::size_t>(pe)];
    const SimTime produced = a.producedAt[static_cast<std::size_t>(offset)];
    const int owner = ownerOf(a, offset);
    if (owner == pe) {
      t = std::max(t, produced) + localReadCost();
      return v;
    }
    counters_.add("array.reads.remote");
    const std::int64_t page = a.layout.pageOfOffset(offset);
    const std::uint64_t key = fetchKey(id, page, pe);
    auto it = fetched_.find(key);
    if (it != fetched_.end() && produced <= it->second) {
      t += localReadCost();  // available in the local page copy
      counters_.add("array.reads.cacheHit");
      return v;
    }
    // Wait for the producer's push, then receive the page.
    const SimTime avail = produced + tm_.pageMessage() + tm_.networkHop;
    t = std::max(t, avail) + tm_.memWrite * tm_.pageElems + localReadCost();
    fetched_[key] = std::max(it == fetched_.end() ? SimTime{} : it->second,
                             produced);
    counters_.add("array.pageFetches");
    return v;
  }

  Value readElem(ArrayId id, std::int64_t offset, const Mode& m) {
    if (!m.spmd) return readOne(id, offset, m.pe);
    Value out{};
    for (int p = 0; p < numPEs_; ++p) out = readOne(id, offset, p);
    return out;
  }

  void writeElem(ArrayId id, std::int64_t offset, Value v, const Mode& m) {
    BArray& a = heap_[id];
    Value& slot = a.elems[static_cast<std::size_t>(offset)];
    if (!slot.empty()) {
      throw EvalError("single-assignment violation: array element " +
                      std::to_string(offset) + " written twice");
    }
    const int owner = ownerOf(a, offset);
    SimTime produced;
    if (m.spmd) {
      // Every PE computes; the owner stores.
      for (int p = 0; p < numPEs_; ++p)
        clock_[static_cast<std::size_t>(p)] += localWriteCost();
      produced = clock_[static_cast<std::size_t>(owner)];
    } else if (owner == m.pe) {
      clock_[static_cast<std::size_t>(m.pe)] += localWriteCost();
      produced = clock_[static_cast<std::size_t>(m.pe)];
    } else {
      // Remote write: ship the value to the owner.
      SimTime& t = clock_[static_cast<std::size_t>(m.pe)];
      t += localWriteCost() + tm_.tokenRoute();
      produced = t + tm_.networkHop;
      counters_.add("array.writes.remote");
    }
    slot = v;
    a.producedAt[static_cast<std::size_t>(offset)] = produced;
  }

  // --- expression/item evaluation -------------------------------------------

  void evalNode(const Node& n, Env& env, const Mode& m) {
    switch (n.op) {
      case NodeOp::Const:
        charge(m, tm_.memRead + tm_.memWrite);
        env.at(n.dst) = n.imm;
        return;
      case NodeOp::Alloc: {
        ArrayShape shape;
        shape.rank = n.nin;
        shape.dim0 = env.at(n.in[0]).asInt();
        shape.dim1 = n.nin == 2 ? env.at(n.in[1]).asInt() : 1;
        env.at(n.dst) = Value::arrayv(alloc(shape, m));
        return;
      }
      case NodeOp::ARead: {
        const BArray& a = arr(env.at(n.in[0]));
        const int rank = n.nin - 1;
        std::int64_t off = resolveOffset(
            a, env.at(n.in[1]).asInt(),
            rank == 2 ? env.at(n.in[2]).asInt() : 0, rank);
        counters_.add("array.reads");
        env.at(n.dst) = readElem(env.at(n.in[0]).asArray(), off, m);
        return;
      }
      case NodeOp::Dim0:
      case NodeOp::Dim1: {
        const BArray& a = arr(env.at(n.in[0]));
        charge(m, tm_.memRead);
        env.at(n.dst) = Value::intv(n.op == NodeOp::Dim1 ? a.shape.dim1
                                                         : a.shape.dim0);
        return;
      }
      case NodeOp::AWrite: {
        const BArray& a = arr(env.at(n.in[0]));
        const int rank = n.nin - 2;
        std::int64_t off = resolveOffset(
            a, env.at(n.in[1]).asInt(),
            rank == 2 ? env.at(n.in[2]).asInt() : 0, rank);
        counters_.add("array.writes");
        writeElem(env.at(n.in[0]).asArray(), off,
                  env.at(n.in[rank + 1]), m);
        return;
      }
      default:
        break;
    }
    const Op op = translate::nodeToOp(n.op);
    if (isBinaryOp(op)) {
      const Value& a = env.at(n.in[0]);
      const Value& b = env.at(n.in[1]);
      charge(m, tm_.euCost(op, binIsReal(a, b)));
      if (const char* err = binOpError(op, a, b))
        throw EvalError(std::string(err) + " in " + curBlock_->name);
      env.at(n.dst) = applyBin(op, a, b);
      return;
    }
    PODS_CHECK(isUnaryOp(op));
    const Value& a = env.at(n.in[0]);
    charge(m, tm_.euCost(op, a.isReal()));
    env.at(n.dst) = applyUn(op, a);
  }

  void evalItems(const std::vector<Item>& items, Env& env, const Mode& m) {
    for (const Item& it : items) {
      switch (it.kind) {
        case ItemKind::Node:
          evalNode(it.node, env, m);
          break;
        case ItemKind::If:
          charge(m, tm_.intCmp);
          if (env.at(it.ifi->cond).truthy()) {
            evalItems(it.ifi->thenItems, env, m);
          } else {
            evalItems(it.ifi->elseItems, env, m);
          }
          break;
        case ItemKind::Call: {
          const ir::Function& fn = prog_.fns[it.call->fnIndex];
          charge(m, tm_.contextSwitch);  // conventional call overhead
          Env callee(fn.numVals);
          for (std::size_t i = 0; i < it.call->args.size(); ++i)
            callee.at(fn.params[i]) = env.at(it.call->args[i]);
          evalBlockBody(fn.body, callee, m);
          if (it.call->dst != kNoVal) {
            PODS_CHECK(!fn.retVals.empty());
            env.at(it.call->dst) = callee.at(fn.retVals[0]);
          }
          break;
        }
        case ItemKind::Loop:
          evalLoop(*it.loop, env, m);
          break;
        case ItemKind::Next:
          charge(m, tm_.memRead + tm_.memWrite);
          // Write the carried shadow of the *owning* loop; the loop driver
          // reads shadows at the bottom of each iteration.
          PODS_CHECK(curLoop_ != nullptr);
          env.at(curLoop_->carried[it.carryIndex].shadow) = env.at(it.nextVal);
          break;
      }
    }
  }

  void evalBlockBody(const Block& b, Env& env, const Mode& m) {
    const Block* saved = curBlock_;
    curBlock_ = &b;
    evalItems(b.body, env, m);
    curBlock_ = saved;
  }

  /// Runs the iterations of `loop` for indices [lo, hi] (respecting loop
  /// direction) under mode `m`.
  void runRange(const Block& loop, Env& env, const Mode& m, std::int64_t lo,
                std::int64_t hi) {
    const Block* savedLoop = curLoop_;
    const Block* savedBlock = curBlock_;
    curLoop_ = curBlock_ = &loop;
    if (loop.ascending) {
      for (std::int64_t i = lo; i <= hi; ++i) {
        charge(m, loopIterCost());
        env.at(loop.indexVal) = Value::intv(i);
        iterBody(loop, env, m);
      }
    } else {
      for (std::int64_t i = lo; i >= hi; --i) {
        charge(m, loopIterCost());
        env.at(loop.indexVal) = Value::intv(i);
        iterBody(loop, env, m);
      }
    }
    curLoop_ = savedLoop;
    curBlock_ = savedBlock;
  }

  void iterBody(const Block& loop, Env& env, const Mode& m) {
    for (const ir::Carried& c : loop.carried)
      env.at(c.shadow) = env.at(c.cur);
    evalItems(loop.body, env, m);
    for (const ir::Carried& c : loop.carried)
      env.at(c.cur) = env.at(c.shadow);
  }

  void evalLoop(const Block& loop, Env& env, const Mode& m) {
    for (const ir::Carried& c : loop.carried) env.at(c.cur) = env.at(c.init);

    if (loop.kind == BlockKind::WhileLoop) {
      const Block* savedLoop = curLoop_;
      const Block* savedBlock = curBlock_;
      curLoop_ = curBlock_ = &loop;
      for (;;) {
        evalItems(loop.condItems, env, m);
        charge(m, tm_.intCmp);
        if (!env.at(loop.condVal).truthy()) break;
        iterBody(loop, env, m);
      }
      curLoop_ = savedLoop;
      curBlock_ = savedBlock;
      evalItems(loop.finalItems, env, m);
      return;
    }

    const std::int64_t init = env.at(loop.initVal).asInt();
    const std::int64_t limit = env.at(loop.limitVal).asInt();
    const partition::LoopPlan* lp = plan_ ? plan_->find(&loop) : nullptr;
    if (m.spmd && lp && lp->replicated && numPEs_ > 1) {
      counters_.add("loops.distributed");
      for (int p = 0; p < numPEs_; ++p) {
        IdxRange r = rfBounds(loop, *lp, env, p, init, limit);
        Mode one{false, p};
        if (!r.empty()) {
          if (loop.ascending) {
            runRange(loop, env, one, r.lo, r.hi);
          } else {
            runRange(loop, env, one, r.hi, r.lo);
          }
        }
      }
    } else {
      counters_.add("loops.local");
      runRange(loop, env, m, init, limit);
    }
    evalItems(loop.finalItems, env, m);
  }

  /// Range-Filter bounds for PE p, as an ascending inclusive range clamped to
  /// the loop's own bounds.
  IdxRange rfBounds(const Block& loop, const partition::LoopPlan& lp, Env& env,
                    int p, std::int64_t init, std::int64_t limit) {
    const std::int64_t lo0 = loop.ascending ? init : limit;
    const std::int64_t hi0 = loop.ascending ? limit : init;
    IdxRange r;
    switch (lp.mode) {
      case partition::RfMode::OwnedRows: {
        const BArray& a = arr(env.at(lp.governingArray));
        IdxRange rows = a.distributed
                            ? a.layout.ownedRows(p)
                            : (p == 0 ? IdxRange{0, a.shape.dim0 - 1}
                                      : IdxRange{});
        r = {rows.lo - lp.offset, rows.hi - lp.offset};
        break;
      }
      case partition::RfMode::OwnedColsOfRow: {
        const BArray& a = arr(env.at(lp.governingArray));
        std::int64_t row = env.at(lp.rowIndexVal).asInt();
        IdxRange cols = a.distributed
                            ? a.layout.ownedColsOfRow(p, row)
                            : (p == 0 ? IdxRange{0, a.shape.dim1 - 1}
                                      : IdxRange{});
        r = {cols.lo - lp.offset, cols.hi - lp.offset};
        break;
      }
      case partition::RfMode::BlockRange:
        r = blockPartition(lo0, hi0, p, numPEs_);
        break;
    }
    return {std::max(r.lo, lo0), std::min(r.hi, hi0)};
  }

  const ir::Program& prog_;
  const partition::Plan* plan_;
  int numPEs_;
  sim::Timing tm_;
  std::vector<SimTime> clock_;
  std::vector<BArray> heap_;
  std::unordered_map<std::uint64_t, SimTime> fetched_;
  Counters counters_;
  const Block* curLoop_ = nullptr;
  /// The innermost block being evaluated, whose name (that of its SP) run
  /// errors report.
  const Block* curBlock_ = nullptr;
};

}  // namespace

BaselineResult runStatic(const ir::Program& prog, const partition::Plan& plan,
                         int numPEs, const sim::Timing& timing) {
  return Interp(prog, &plan, numPEs, timing).run();
}

BaselineResult runSequential(const ir::Program& prog,
                             const sim::Timing& timing) {
  return Interp(prog, nullptr, 1, timing).run();
}

}  // namespace pods::baseline
