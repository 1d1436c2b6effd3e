// Serving-daemon tests (src/serve/).
//
// Three layers, innermost first: the serve wire frames (Welcome / Submit /
// CacheRef / JobResult / Busy) through the same all-or-nothing decode
// discipline as every other ctl frame; JobRunner pure (warm pool, compiled
// cache, admission control, deadline abort) with no sockets; and the full
// Daemon + Client stack over a real Unix-domain socket — including the
// multi-tenancy contract this PR exists for: concurrent jobs are
// bit-identical to the sequential engine, per-job counters are identical
// across tenants, an aborted job leaves zero residue in survivors, and a
// garbage client is counted and dropped without taking the daemon down.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pods.hpp"
#include "proto/ctl.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/serve.hpp"
#include "workloads/simple.hpp"

namespace pods {
namespace serve {
namespace {

using proto::ctl::BusyMsg;
using proto::ctl::JobResultMsg;
using proto::ctl::SubmitMsg;
using proto::ctl::WelcomeMsg;

// ---------------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------------

TEST(ServeProto, WelcomeRoundTrip) {
  WelcomeMsg m;
  m.cfgHash = 0x1234567890ABCDEFull;
  m.pes = 7;
  m.pageElems = 48;
  m.maxInflight = 3;
  m.maxQueue = 9;
  std::vector<std::uint8_t> buf;
  proto::ctl::encodeWelcome(m, buf);
  WelcomeMsg d;
  ASSERT_TRUE(proto::ctl::decodeWelcome(buf.data(), buf.size(), d));
  EXPECT_EQ(d.cfgHash, m.cfgHash);
  EXPECT_EQ(d.pes, m.pes);
  EXPECT_EQ(d.pageElems, m.pageElems);
  EXPECT_EQ(d.maxInflight, m.maxInflight);
  EXPECT_EQ(d.maxQueue, m.maxQueue);
}

TEST(ServeProto, SubmitAndCacheRefRoundTrip) {
  SubmitMsg m;
  m.cfgHash = 0xFEEDFACECAFEBEEFull;
  m.clientTag = 41;
  m.timeoutMs = 2500;
  m.source = "function main()\n  return 1\nend\n";
  std::vector<std::uint8_t> buf;
  proto::ctl::encodeSubmit(m, buf);
  SubmitMsg d;
  ASSERT_TRUE(proto::ctl::decodeSubmit(buf.data(), buf.size(), d));
  EXPECT_EQ(d.cfgHash, m.cfgHash);
  EXPECT_EQ(d.clientTag, m.clientTag);
  EXPECT_EQ(d.timeoutMs, m.timeoutMs);
  EXPECT_EQ(d.byHash, 0);
  EXPECT_EQ(d.source, m.source);

  SubmitMsg h;
  h.cfgHash = m.cfgHash;
  h.clientTag = 42;
  h.timeoutMs = 0;
  h.sourceHash = 0xA5A5A5A55A5A5A5Aull;
  buf.clear();
  proto::ctl::encodeCacheRef(h, buf);
  SubmitMsg hd;
  ASSERT_TRUE(proto::ctl::decodeCacheRef(buf.data(), buf.size(), hd));
  EXPECT_EQ(hd.byHash, 1);  // decode marks the wire form
  EXPECT_EQ(hd.sourceHash, h.sourceHash);
  EXPECT_EQ(hd.clientTag, h.clientTag);
}

JobResultMsg sampleJobResult() {
  JobResultMsg m;
  m.clientTag = 11;
  m.jobId = 3;
  m.ok = 1;
  m.cacheHit = 1;
  m.sourceHash = 0x0123456789ABCDEFull;
  m.wallMs = 12.75;
  m.resultSet = {1, 1, 0};
  m.results = {Value::intv(-5), Value::realv(0.0), Value::intv(0)};
  JobResultMsg::OutArray scalar;   // slot 0: plain scalar
  JobResultMsg::OutArray arr;      // slot 1: a 2x2 array result
  arr.present = 1;
  arr.rank = 2;
  arr.dim0 = 2;
  arr.dim1 = 2;
  arr.elems = {Value::realv(1.5), Value::realv(2.5), Value::realv(-3.0),
               Value::realv(4.0)};
  JobResultMsg::OutArray unset;    // slot 2: never stored
  m.arrays = {scalar, arr, unset};
  m.counters = {{"job.3.native.instructions", 1234},
                {"job.3.native.framesCreated", 56}};
  return m;
}

TEST(ServeProto, JobResultRoundTrip) {
  const JobResultMsg m = sampleJobResult();
  std::vector<std::uint8_t> buf;
  proto::ctl::encodeJobResult(m, buf);
  JobResultMsg d;
  ASSERT_TRUE(proto::ctl::decodeJobResult(buf.data(), buf.size(), d));
  EXPECT_EQ(d.clientTag, m.clientTag);
  EXPECT_EQ(d.jobId, m.jobId);
  EXPECT_EQ(d.ok, m.ok);
  EXPECT_EQ(d.cacheHit, m.cacheHit);
  EXPECT_EQ(d.sourceHash, m.sourceHash);
  EXPECT_EQ(d.wallMs, m.wallMs);
  ASSERT_EQ(d.results.size(), m.results.size());
  ASSERT_EQ(d.resultSet, m.resultSet);
  for (std::size_t i = 0; i < m.results.size(); ++i)
    EXPECT_TRUE(d.results[i].identical(m.results[i])) << "slot " << i;
  ASSERT_EQ(d.arrays.size(), m.arrays.size());
  EXPECT_EQ(d.arrays[0].present, 0);
  ASSERT_EQ(d.arrays[1].present, 1);
  EXPECT_EQ(d.arrays[1].rank, 2);
  EXPECT_EQ(d.arrays[1].dim0, 2);
  EXPECT_EQ(d.arrays[1].dim1, 2);
  ASSERT_EQ(d.arrays[1].elems.size(), m.arrays[1].elems.size());
  for (std::size_t i = 0; i < m.arrays[1].elems.size(); ++i)
    EXPECT_TRUE(d.arrays[1].elems[i].identical(m.arrays[1].elems[i]));
  EXPECT_EQ(d.counters, m.counters);
}

TEST(ServeProto, BusyRoundTrip) {
  BusyMsg m;
  m.clientTag = 77;
  m.inflight = 2;
  m.queued = 8;
  m.maxInflight = 2;
  m.maxQueue = 8;
  std::vector<std::uint8_t> buf;
  proto::ctl::encodeBusy(m, buf);
  BusyMsg d;
  ASSERT_TRUE(proto::ctl::decodeBusy(buf.data(), buf.size(), d));
  EXPECT_EQ(d.clientTag, m.clientTag);
  EXPECT_EQ(d.inflight, m.inflight);
  EXPECT_EQ(d.queued, m.queued);
  EXPECT_EQ(d.maxInflight, m.maxInflight);
  EXPECT_EQ(d.maxQueue, m.maxQueue);
}

// All-or-nothing decode: truncation at EVERY byte boundary and trailing
// junk must reject the frame, for every serve payload.
TEST(ServeProtoFuzz, TruncationAndTrailingJunkRejected) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> payloads;

  WelcomeMsg w;
  w.cfgHash = 99;
  w.pes = 4;
  payloads.emplace_back("welcome", std::vector<std::uint8_t>{});
  proto::ctl::encodeWelcome(w, payloads.back().second);

  SubmitMsg s;
  s.cfgHash = 1;
  s.clientTag = 2;
  s.source = "function main() return 1 end";
  payloads.emplace_back("submit", std::vector<std::uint8_t>{});
  proto::ctl::encodeSubmit(s, payloads.back().second);

  SubmitMsg cr;
  cr.cfgHash = 1;
  cr.clientTag = 3;
  cr.sourceHash = 4;
  payloads.emplace_back("cacheref", std::vector<std::uint8_t>{});
  proto::ctl::encodeCacheRef(cr, payloads.back().second);

  payloads.emplace_back("jobresult", std::vector<std::uint8_t>{});
  proto::ctl::encodeJobResult(sampleJobResult(), payloads.back().second);

  BusyMsg b;
  b.clientTag = 5;
  payloads.emplace_back("busy", std::vector<std::uint8_t>{});
  proto::ctl::encodeBusy(b, payloads.back().second);

  for (const auto& [name, buf] : payloads) {
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      WelcomeMsg dw;
      SubmitMsg ds;
      JobResultMsg dj;
      BusyMsg db;
      bool any = false;
      if (name == "welcome") any = proto::ctl::decodeWelcome(buf.data(), cut, dw);
      if (name == "submit") any = proto::ctl::decodeSubmit(buf.data(), cut, ds);
      if (name == "cacheref")
        any = proto::ctl::decodeCacheRef(buf.data(), cut, ds);
      if (name == "jobresult")
        any = proto::ctl::decodeJobResult(buf.data(), cut, dj);
      if (name == "busy") any = proto::ctl::decodeBusy(buf.data(), cut, db);
      EXPECT_FALSE(any) << name << " decoded a " << cut << "-byte prefix of "
                        << buf.size();
    }
    std::vector<std::uint8_t> junk = buf;
    junk.push_back(0xAB);
    WelcomeMsg dw;
    SubmitMsg ds;
    JobResultMsg dj;
    BusyMsg db;
    bool any = false;
    if (name == "welcome")
      any = proto::ctl::decodeWelcome(junk.data(), junk.size(), dw);
    if (name == "submit")
      any = proto::ctl::decodeSubmit(junk.data(), junk.size(), ds);
    if (name == "cacheref")
      any = proto::ctl::decodeCacheRef(junk.data(), junk.size(), ds);
    if (name == "jobresult")
      any = proto::ctl::decodeJobResult(junk.data(), junk.size(), dj);
    if (name == "busy") any = proto::ctl::decodeBusy(junk.data(), junk.size(), db);
    EXPECT_FALSE(any) << name << " accepted trailing junk";
  }
}

// The config hash must move when the machine shape moves: the same source
// partitioned for a different PE count is a different program, and a stale
// client must be turned away at the handshake, not served wrong answers.
TEST(ServeHash, ConfigHashTracksMachineShape) {
  ServeConfig a;                    // defaults
  ServeConfig b = a;
  EXPECT_EQ(configHash(a), configHash(b));
  b.pes = a.pes + 1;
  EXPECT_NE(configHash(a), configHash(b));
  b = a;
  b.pageElems = a.pageElems * 2;
  EXPECT_NE(configHash(a), configHash(b));
  // Admission limits are NOT part of the hash — they don't change results.
  b = a;
  b.maxInflight = a.maxInflight + 3;
  b.maxQueue = a.maxQueue + 3;
  b.cacheCapacity = a.cacheCapacity + 3;
  EXPECT_EQ(configHash(a), configHash(b));

  EXPECT_NE(sourceHash("function main() return 1 end"),
            sourceHash("function main() return 2 end"));
}

// ---------------------------------------------------------------------------
// JobRunner (no sockets)
// ---------------------------------------------------------------------------

ProgramOutputs seqReference(const std::string& source) {
  CompileResult cr = compile(source);
  EXPECT_TRUE(cr.ok) << cr.diagnostics;
  BaselineRun seq = runSequentialBaseline(*cr.compiled);
  EXPECT_TRUE(seq.stats.ok) << seq.stats.error;
  return std::move(seq.out);
}

TEST(ServeRunner, MissThenHitBothMatchSequentialEngine) {
  ServeConfig cfg;
  cfg.pes = 4;
  cfg.maxInflight = 1;
  JobRunner runner(cfg);
  const std::string src = workloads::simpleSource(16, 2);
  const ProgramOutputs ref = seqReference(src);

  JobRequest req;
  req.source = src;
  JobReply first = runner.run(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(first.sourceHash, sourceHash(src));
  std::string why;
  EXPECT_TRUE(sameOutputs(first.out, ref, &why)) << why;

  JobReply second = runner.run(req);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cacheHit);
  EXPECT_TRUE(sameOutputs(second.out, ref, &why)) << why;
  // A hit is bit-identical to the miss, not merely "close".
  EXPECT_TRUE(sameOutputs(second.out, first.out, &why)) << why;

  // By-handle submit: no source bytes at all, same answer.
  JobRequest byHash;
  byHash.byHash = true;
  byHash.hash = first.sourceHash;
  JobReply third = runner.run(byHash);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(third.cacheHit);
  EXPECT_TRUE(sameOutputs(third.out, first.out, &why)) << why;

  const Counters st = runner.stats();
  EXPECT_EQ(st.get("serve.submits"), 3);
  EXPECT_EQ(st.get("serve.submits.byHandle"), 1);
  EXPECT_EQ(st.get("serve.cache.misses"), 1);
  EXPECT_EQ(st.get("serve.cache.hits"), 2);
  EXPECT_EQ(st.get("serve.jobs.ok"), 3);
  EXPECT_EQ(st.get("serve.cache.size"), 1);
  // Per-job canonical counters roll up un-namespaced into the aggregate.
  EXPECT_GT(st.get("native.instructions"), 0);
  EXPECT_EQ(st.get("native.framesLive"), 0);
}

TEST(ServeRunner, UnknownHandleIsAStructuredFailure) {
  ServeConfig cfg;
  cfg.pes = 2;
  JobRunner runner(cfg);
  JobRequest req;
  req.byHash = true;
  req.hash = 0xDEAD0000BEEF0000ull;
  JobReply rep = runner.run(req);
  EXPECT_FALSE(rep.busy);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("resubmit"), std::string::npos) << rep.error;
  EXPECT_EQ(runner.stats().get("serve.jobs.failed"), 1);
}

TEST(ServeRunner, CompileErrorIsAStructuredFailure) {
  ServeConfig cfg;
  cfg.pes = 2;
  JobRunner runner(cfg);
  JobRequest req;
  req.source = "function main( this is not IdLite";
  JobReply rep = runner.run(req);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("compile failed"), std::string::npos) << rep.error;
  // A broken program must not poison the cache.
  EXPECT_EQ(runner.stats().get("serve.cache.size"), 0);
}

TEST(ServeRunner, LruEvictionEvictsOldestAndStaysBitIdentical) {
  ServeConfig cfg;
  cfg.pes = 2;
  cfg.cacheCapacity = 2;
  JobRunner runner(cfg);
  const std::string a = workloads::simpleSource(8, 1);
  const std::string b = workloads::simpleSource(8, 2);
  const std::string c = workloads::simpleSource(10, 1);

  JobRequest req;
  req.source = a;
  JobReply firstA = runner.run(req);
  ASSERT_TRUE(firstA.ok) << firstA.error;
  req.source = b;
  ASSERT_TRUE(runner.run(req).ok);
  req.source = c;  // capacity 2: inserting C evicts A (the LRU tail)
  ASSERT_TRUE(runner.run(req).ok);

  Counters st = runner.stats();
  EXPECT_EQ(st.get("serve.cache.evictions"), 1);
  EXPECT_EQ(st.get("serve.cache.size"), 2);

  // A's handle is gone — the structured miss tells the client to resubmit.
  JobRequest stale;
  stale.byHash = true;
  stale.hash = firstA.sourceHash;
  JobReply gone = runner.run(stale);
  EXPECT_FALSE(gone.ok);
  EXPECT_NE(gone.error.find("resubmit"), std::string::npos);

  // Resubmitting the source recompiles: a miss, but bit-identical results.
  req.source = a;
  JobReply again = runner.run(req);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.cacheHit);
  std::string why;
  EXPECT_TRUE(sameOutputs(again.out, firstA.out, &why)) << why;

  // B was refreshed more recently than A's re-insert evicted it? No: the
  // re-insert of A evicts B (LRU order was C, B after A's eviction).
  st = runner.stats();
  EXPECT_EQ(st.get("serve.cache.evictions"), 2);
}

TEST(ServeRunner, SaturatedAdmissionRejectsWithCounts) {
  ServeConfig cfg;
  cfg.pes = 4;
  cfg.maxInflight = 1;
  cfg.maxQueue = 1;
  JobRunner runner(cfg);

  // Job 1: long enough (~1s of native compute) that jobs 2 and 3 are
  // submitted while it still owns the single executor.
  std::mutex m;
  std::condition_variable cv;
  int doneCount = 0;
  auto onDone = [&](JobReply) {
    std::lock_guard<std::mutex> g(m);
    ++doneCount;
    cv.notify_all();
  };
  JobRequest longJob;
  longJob.source = workloads::simpleSource(48, 80);
  ASSERT_TRUE(runner.submit(longJob, onDone));
  // Wait for it to actually start (occupy the executor, not the queue).
  while (runner.stats().get("serve.jobs.started") < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  JobRequest quick;
  quick.source = workloads::simpleSource(8, 1);
  ASSERT_TRUE(runner.submit(quick, onDone));  // fills the one queue slot

  std::uint32_t inflight = 0, queued = 0;
  EXPECT_FALSE(runner.submit(quick, onDone, &inflight, &queued));
  EXPECT_EQ(inflight, 1u);
  EXPECT_EQ(queued, 1u);

  // The blocking wrapper reports the same rejection as a busy reply.
  JobReply busy = runner.run(quick);
  EXPECT_TRUE(busy.busy);
  EXPECT_EQ(busy.inflight, 1u);
  EXPECT_EQ(busy.queued, 1u);

  {
    std::unique_lock<std::mutex> g(m);
    cv.wait(g, [&] { return doneCount == 2; });
  }
  runner.drain();
  const Counters st = runner.stats();
  EXPECT_EQ(st.get("serve.busyRejects"), 2);
  EXPECT_EQ(st.get("serve.jobs.ok"), 2);
  EXPECT_EQ(st.get("serve.inflight"), 0);
  EXPECT_EQ(st.get("serve.queued"), 0);
}

TEST(ServeRunner, AbortedJobLeavesZeroResidueInSurvivors) {
  ServeConfig cfg;
  cfg.pes = 4;
  cfg.maxInflight = 2;  // victim and survivor genuinely concurrent
  JobRunner runner(cfg);

  std::mutex m;
  std::condition_variable cv;
  bool victimDone = false, survivorDone = false;
  JobReply victimRep, survivorRep;

  JobRequest victim;
  victim.source = workloads::simpleSource(48, 200);  // ~2.5s unaborted
  victim.timeoutMs = 120;
  ASSERT_TRUE(runner.submit(victim, [&](JobReply r) {
    std::lock_guard<std::mutex> g(m);
    victimRep = std::move(r);
    victimDone = true;
    cv.notify_all();
  }));

  JobRequest survivor;
  survivor.source = workloads::simpleSource(16, 4);
  ASSERT_TRUE(runner.submit(survivor, [&](JobReply r) {
    std::lock_guard<std::mutex> g(m);
    survivorRep = std::move(r);
    survivorDone = true;
    cv.notify_all();
  }));

  {
    std::unique_lock<std::mutex> g(m);
    cv.wait(g, [&] { return victimDone && survivorDone; });
  }

  EXPECT_FALSE(victimRep.ok);
  EXPECT_EQ(victimRep.error.rfind("aborted", 0), 0u) << victimRep.error;

  ASSERT_TRUE(survivorRep.ok) << survivorRep.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(survivorRep.out,
                          seqReference(workloads::simpleSource(16, 4)), &why))
      << why;
  // The multi-tenancy contract: the survivor's machine is balanced — every
  // frame it created was retired, nothing from the victim leaked in.
  EXPECT_EQ(survivorRep.counters.get("native.framesLive"), 0);
  EXPECT_EQ(survivorRep.counters.get("native.framesCreated"),
            survivorRep.counters.get("native.framesRetired"));
  EXPECT_GT(survivorRep.counters.get("native.framesCreated"), 0);

  EXPECT_EQ(runner.stats().get("serve.jobs.aborted"), 1);

  // The runner is still serviceable after an abort.
  JobRequest again;
  again.source = workloads::simpleSource(16, 4);
  JobReply rep = runner.run(again);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(sameOutputs(rep.out, survivorRep.out, &why)) << why;
}

// ---------------------------------------------------------------------------
// Daemon + Client over a real Unix socket
// ---------------------------------------------------------------------------

struct TempSock {
  std::string dir;
  std::string path;
  TempSock() {
    char tmpl[] = "/tmp/pods_serve_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    dir = d != nullptr ? d : "/tmp";
    path = dir + "/podsd.sock";
  }
  ~TempSock() {
    ::unlink(path.c_str());
    ::rmdir(dir.c_str());
  }
};

TEST(ServeDaemon, EndToEndSubmitCacheAndHandles) {
  TempSock sock;
  ServeConfig cfg;
  cfg.pes = 4;
  cfg.maxInflight = 2;
  Endpoint ep;
  ep.unixPath = sock.path;
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  Client cli;
  ASSERT_TRUE(cli.connectUnix(sock.path, &err)) << err;
  WelcomeMsg welcome;
  ASSERT_TRUE(cli.handshake(&welcome, &err)) << err;
  EXPECT_EQ(welcome.cfgHash, configHash(cfg));
  EXPECT_EQ(welcome.pes, cfg.pes);
  EXPECT_EQ(welcome.pageElems, static_cast<std::uint32_t>(cfg.pageElems));
  EXPECT_EQ(welcome.maxInflight, static_cast<std::uint32_t>(cfg.maxInflight));
  EXPECT_EQ(welcome.maxQueue, static_cast<std::uint32_t>(cfg.maxQueue));

  const std::string src = workloads::simpleSource(16, 2);
  const ProgramOutputs ref = seqReference(src);

  Client::Reply r1;
  ASSERT_TRUE(cli.submitSource(src, 0, &r1, &err)) << err;
  ASSERT_FALSE(r1.busy);
  ASSERT_EQ(r1.result.ok, 1) << r1.result.error;
  EXPECT_EQ(r1.result.cacheHit, 0);
  EXPECT_EQ(r1.result.sourceHash, sourceHash(src));
  std::string why;
  EXPECT_TRUE(sameOutputs(Client::toOutputs(r1.result), ref, &why)) << why;
  // Per-job counters come back namespaced under this job's id.
  const std::string prefix = "job." + std::to_string(r1.result.jobId) + ".";
  bool sawNamespaced = false;
  for (const auto& [k, v] : r1.result.counters) {
    EXPECT_EQ(k.rfind(prefix, 0), 0u) << k;
    if (k == prefix + "native.framesLive") {
      EXPECT_EQ(v, 0);
    }
    sawNamespaced = true;
  }
  EXPECT_TRUE(sawNamespaced);

  Client::Reply r2;
  ASSERT_TRUE(cli.submitSource(src, 0, &r2, &err)) << err;
  ASSERT_EQ(r2.result.ok, 1) << r2.result.error;
  EXPECT_EQ(r2.result.cacheHit, 1);
  EXPECT_NE(r2.result.jobId, r1.result.jobId);  // job ids are never reused
  EXPECT_TRUE(sameOutputs(Client::toOutputs(r2.result),
                          Client::toOutputs(r1.result), &why))
      << why;

  // A second client reuses the warm cache by handle alone.
  Client cli2;
  ASSERT_TRUE(cli2.connectUnix(sock.path, &err)) << err;
  WelcomeMsg w2;
  ASSERT_TRUE(cli2.handshake(&w2, &err)) << err;
  Client::Reply r3;
  ASSERT_TRUE(cli2.submitHash(r1.result.sourceHash, 0, &r3, &err)) << err;
  ASSERT_EQ(r3.result.ok, 1) << r3.result.error;
  EXPECT_EQ(r3.result.cacheHit, 1);
  EXPECT_TRUE(sameOutputs(Client::toOutputs(r3.result),
                          Client::toOutputs(r1.result), &why))
      << why;

  // An unknown handle fails the job, not the connection.
  Client::Reply r4;
  ASSERT_TRUE(cli2.submitHash(0x00C0FFEE00C0FFEEull, 0, &r4, &err)) << err;
  EXPECT_EQ(r4.result.ok, 0);
  EXPECT_NE(r4.result.error.find("resubmit"), std::string::npos);
  Client::Reply r5;  // the same connection still serves
  ASSERT_TRUE(cli2.submitHash(r1.result.sourceHash, 0, &r5, &err)) << err;
  EXPECT_EQ(r5.result.ok, 1);

  daemon.stop();
  const Counters st = daemon.stats();
  EXPECT_EQ(st.get("serve.connections"), 2);
  EXPECT_EQ(st.get("serve.submits"), 5);
  EXPECT_EQ(st.get("serve.submits.byHandle"), 3);
  EXPECT_EQ(st.get("serve.cache.hits"), 3);
  EXPECT_EQ(st.get("serve.jobs.ok"), 4);
  EXPECT_EQ(st.get("serve.jobs.failed"), 1);
  EXPECT_EQ(st.get("net.ctl.badFrames"), 0);
}

// The core multi-tenancy claim: N concurrent tenants running the same
// program all get the bit-identical answer AND identical deterministic
// per-job counters — context namespacing means no token, frame, or ledger
// entry of one job is ever visible to another.
TEST(ServeDaemon, ConcurrentTenantsAreBitIdenticalAndIsolated) {
  TempSock sock;
  ServeConfig cfg;
  cfg.pes = 2;
  cfg.maxInflight = 4;
  cfg.maxQueue = 16;
  Endpoint ep;
  ep.unixPath = sock.path;
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  const std::string src = workloads::simpleSource(16, 3);
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::mutex m;
  std::vector<JobResultMsg> results;
  std::vector<std::string> errors;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client cli;
      std::string cerr;
      WelcomeMsg w;
      if (!cli.connectUnix(sock.path, &cerr) || !cli.handshake(&w, &cerr)) {
        std::lock_guard<std::mutex> g(m);
        errors.push_back(cerr);
        return;
      }
      Client::Reply reply;
      for (;;) {  // admission may bounce us; back off and retry
        if (!cli.submitSource(src, 0, &reply, &cerr)) {
          std::lock_guard<std::mutex> g(m);
          errors.push_back(cerr);
          return;
        }
        if (!reply.busy) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::lock_guard<std::mutex> g(m);
      results.push_back(std::move(reply.result));
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kClients));

  const ProgramOutputs ref = seqReference(src);
  // The deterministic per-job counters: identical for every tenant however
  // the jobs interleaved. (Scheduling-dependent counters — instruction
  // retries after a blocked operand, idle transitions, token batching —
  // legitimately differ.)
  const char* kDeterministic[] = {"native.framesCreated",
                                  "native.framesRetired"};
  std::map<std::string, std::int64_t> expect;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResultMsg& r = results[i];
    ASSERT_EQ(r.ok, 1) << r.error;
    std::string why;
    EXPECT_TRUE(sameOutputs(Client::toOutputs(r), ref, &why))
        << "tenant " << i << ": " << why;
    const std::string prefix = "job." + std::to_string(r.jobId) + ".";
    std::map<std::string, std::int64_t> mine;
    for (const auto& [k, v] : r.counters) {
      ASSERT_EQ(k.rfind(prefix, 0), 0u) << k;  // no foreign job's counters
      mine[k.substr(prefix.size())] = v;
    }
    EXPECT_EQ(mine["native.framesLive"], 0) << "tenant " << i;
    EXPECT_GT(mine["native.instructions"], 0) << "tenant " << i;
    for (const char* name : kDeterministic) {
      if (expect.count(name) == 0) {
        expect[name] = mine[name];
        EXPECT_GT(mine[name], 0) << name;
      } else {
        EXPECT_EQ(mine[name], expect[name])
            << "tenant " << i << " diverged on " << name
            << " (cross-job bleed?)";
      }
    }
  }

  daemon.stop();
  const Counters st = daemon.stats();
  EXPECT_EQ(st.get("serve.jobs.ok"), kClients);
  // Tenants racing the first compile may each miss before the winner's
  // insert lands (the insert dedups); every non-racing tenant must hit.
  EXPECT_GE(st.get("serve.cache.misses"), 1);
  EXPECT_EQ(st.get("serve.cache.hits") + st.get("serve.cache.misses"),
            kClients);
  EXPECT_EQ(st.get("serve.cache.size"), 1);
}

TEST(ServeDaemon, GarbageFrameCountedConnectionDroppedDaemonAlive) {
  TempSock sock;
  ServeConfig cfg;
  cfg.pes = 2;
  Endpoint ep;
  ep.unixPath = sock.path;
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  {  // corrupt header: out-of-range tag
    Client garbage;
    ASSERT_TRUE(garbage.connectUnix(sock.path, &err)) << err;
    const std::uint8_t wire[] = {4, 0, 0, 0, 99, 1, 2, 3, 4};
    ASSERT_TRUE(garbage.sendRaw(wire, sizeof(wire)));
    WelcomeMsg w;
    EXPECT_FALSE(garbage.handshake(&w, &err));  // daemon must have closed us
  }
  {  // well-framed Submit before Hello: unexpected tag, same discipline
    Client early;
    ASSERT_TRUE(early.connectUnix(sock.path, &err)) << err;
    SubmitMsg m;
    m.cfgHash = configHash(cfg);
    m.source = "function main() return 1 end";
    std::vector<std::uint8_t> payload, wire;
    proto::ctl::encodeSubmit(m, payload);
    proto::ctl::encodeFrame(proto::ctl::FrameTag::Submit, payload, wire);
    ASSERT_TRUE(early.sendRaw(wire.data(), wire.size()));
    WelcomeMsg w;
    EXPECT_FALSE(early.handshake(&w, &err));
  }
  // Poll: the counts are updated by the I/O thread, not synchronously.
  for (int i = 0; i < 2000 && daemon.stats().get("net.ctl.badFrames") < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(daemon.stats().get("net.ctl.badFrames"), 2);

  // The daemon is untouched: a well-behaved client still gets served.
  Client cli;
  WelcomeMsg w;
  ASSERT_TRUE(cli.connectUnix(sock.path, &err)) << err;
  ASSERT_TRUE(cli.handshake(&w, &err)) << err;
  Client::Reply reply;
  ASSERT_TRUE(cli.submitSource(workloads::simpleSource(8, 1), 0, &reply, &err))
      << err;
  EXPECT_EQ(reply.result.ok, 1) << reply.result.error;
  daemon.stop();
}

// A job that divides by zero, or overflows a division, at run time is the
// tenant's bug, not the daemon's: it fails with an error reply and a count,
// and the daemon keeps serving everyone else.
TEST(ServeDaemon, RuntimeDivisionFaultIsAFailedJobNotADeadDaemon) {
  TempSock sock;
  ServeConfig cfg;
  cfg.pes = 1;
  Endpoint ep;
  ep.unixPath = sock.path;
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  const std::pair<const char*, const char*> hostile[] = {
      {"let z = len(a) - 4; return 10 / z;", "integer division by zero"},
      {"let z = len(a) - 4; return 10 % z;", "modulo by zero"},
      {"let m = 0 - 9223372036854775807 - (len(a) - 3); "
       "return m / (3 - len(a));",
       "integer division overflow"}};
  for (const auto& [body, want] : hostile) {
    Client bad;
    WelcomeMsg w;
    ASSERT_TRUE(bad.connectUnix(sock.path, &err)) << err;
    ASSERT_TRUE(bad.handshake(&w, &err)) << err;
    const std::string src =
        std::string("def main() -> int { let a = array(4); ") + body + " }\n";
    Client::Reply reply;
    ASSERT_TRUE(bad.submitSource(src, 0, &reply, &err)) << err;
    EXPECT_EQ(reply.result.ok, 0);
    EXPECT_NE(reply.result.error.find(std::string(want) + " in main"),
              std::string::npos)
        << reply.result.error;
  }

  // Another client is served as if nothing happened.
  Client cli;
  WelcomeMsg w;
  ASSERT_TRUE(cli.connectUnix(sock.path, &err)) << err;
  ASSERT_TRUE(cli.handshake(&w, &err)) << err;
  const std::string src = workloads::simpleSource(8, 1);
  Client::Reply reply;
  ASSERT_TRUE(cli.submitSource(src, 0, &reply, &err)) << err;
  ASSERT_EQ(reply.result.ok, 1) << reply.result.error;
  std::string why;
  EXPECT_TRUE(
      sameOutputs(Client::toOutputs(reply.result), seqReference(src), &why))
      << why;
  daemon.stop();
  const Counters st = daemon.stats();
  EXPECT_EQ(st.get("serve.jobs.failed"), 3);
  EXPECT_EQ(st.get("serve.jobs.ok"), 1);
}

TEST(ServeDaemon, ConfigHashMismatchIsCountedSeparately) {
  TempSock sock;
  ServeConfig cfg;
  cfg.pes = 2;
  Endpoint ep;
  ep.unixPath = sock.path;
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  Client cli;
  WelcomeMsg w;
  ASSERT_TRUE(cli.connectUnix(sock.path, &err)) << err;
  ASSERT_TRUE(cli.handshake(&w, &err)) << err;
  // A well-FORMED Submit whose cfgHash is stale: rejected and closed, but
  // counted as a config mismatch, not a bad frame.
  SubmitMsg m;
  m.cfgHash = w.cfgHash ^ 1;
  m.clientTag = 1;
  m.source = "function main() return 1 end";
  std::vector<std::uint8_t> payload, wire;
  proto::ctl::encodeSubmit(m, payload);
  proto::ctl::encodeFrame(proto::ctl::FrameTag::Submit, payload, wire);
  ASSERT_TRUE(cli.sendRaw(wire.data(), wire.size()));
  for (int i = 0; i < 2000 && daemon.stats().get("serve.cfgMismatches") < 1;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const Counters st = daemon.stats();
  EXPECT_EQ(st.get("serve.cfgMismatches"), 1);
  EXPECT_EQ(st.get("net.ctl.badFrames"), 0);
  EXPECT_EQ(st.get("serve.submits"), 0);  // never reached the runner
  daemon.stop();
}

TEST(ServeDaemon, TcpLoopbackEphemeralPortServes) {
  ServeConfig cfg;
  cfg.pes = 2;
  Endpoint ep;
  ep.tcp = true;
  ep.tcpPort = 0;  // ephemeral
  Daemon daemon(cfg, ep);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  ASSERT_NE(daemon.boundPort(), 0);

  Client cli;
  WelcomeMsg w;
  ASSERT_TRUE(cli.connectTcp(daemon.boundPort(), &err)) << err;
  ASSERT_TRUE(cli.handshake(&w, &err)) << err;
  EXPECT_EQ(w.cfgHash, configHash(cfg));
  Client::Reply reply;
  ASSERT_TRUE(cli.submitSource(workloads::simpleSource(8, 1), 0, &reply, &err))
      << err;
  ASSERT_EQ(reply.result.ok, 1) << reply.result.error;
  std::string why;
  EXPECT_TRUE(sameOutputs(Client::toOutputs(reply.result),
                          seqReference(workloads::simpleSource(8, 1)), &why))
      << why;
  daemon.stop();
}

}  // namespace
}  // namespace serve
}  // namespace pods
