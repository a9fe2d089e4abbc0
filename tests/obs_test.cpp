// The observability layer (docs/OBSERVABILITY.md): metrics registry
// semantics, histogram quantiles, span crypto-op attribution, export
// formats, the op-count API (obs::op_count reads the registry counters),
// and the neutrality + pooled-vs-sequential determinism contracts
// telemetry must keep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <tuple>

#include "curve/bn254.hpp"
#include "curve/pairing.hpp"
#include "mesh/metro_scenario.hpp"
#include "obs/health.hpp"
#include "obs/fields.hpp"
#include "obs/metrics.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"
#include "peace/entities.hpp"
#include "peace/persist/store.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::Registry;

class ObsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
  void TearDown() override {
    obs::enable(false);
    obs::Tracer::global().clear();
  }
};

TEST_F(ObsTest, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, RegistryHandlesAreStable) {
  Registry reg;
  Counter& a = reg.counter("x.a");
  Counter& same = reg.counter("x.a");
  EXPECT_EQ(&a, &same);
  // Creating more metrics must not move existing ones.
  for (int i = 0; i < 100; ++i)
    reg.counter("x.fill" + std::to_string(i)).add();
  EXPECT_EQ(&a, &reg.counter("x.a"));
  a.add(3);
  reg.reset();
  EXPECT_EQ(a.value(), 0u);       // reset zeroes in place
  EXPECT_EQ(&a, &reg.counter("x.a"));  // identity survives reset
}

TEST_F(ObsTest, HistogramBucketsAndQuantiles) {
  EXPECT_EQ(Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(Histogram::bucket_bound(4), 16u);
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // 100 samples in (512, 1024], exactly one bucket.
  for (int i = 0; i < 100; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 100'000u);
  const double p50 = h.quantile(0.50);
  EXPECT_GT(p50, 512.0);
  EXPECT_LE(p50, 1024.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  // A far-away tail sample moves p99's covering bucket, not p50's.
  for (int i = 0; i < 2; ++i) h.record(1'000'000);
  EXPECT_LE(h.quantile(0.50), 1024.0);
  EXPECT_GT(h.quantile(0.99), 512'000.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(ObsTest, MetricsJsonShape) {
  Registry reg;
  reg.counter("a.count").add(5);
  reg.gauge("a.depth").set(-3);
  reg.histogram("a.lat_us").record(100);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"peace.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"a.depth\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"le_us\": 128"), std::string::npos);
}

TEST_F(ObsTest, OpCountApiReadsRegistry) {
  // obs::op_count and the registry counters are the same numbers, and
  // Registry::reset gives per-scope deltas.
  const auto& bn = curve::Bn254::get();
  Registry::global().reset();
  EXPECT_EQ(obs::op_count(obs::Op::kPairing), 0u);
  EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared), 0u);
  (void)curve::pairing(bn.g1_gen, bn.g2_gen);
  EXPECT_EQ(obs::op_count(obs::Op::kPairing), 1u);
  EXPECT_EQ(Registry::global().counter("curve.pairings").value(), 1u);
  const curve::G2Prepared prep(bn.g2_gen);
  EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared), 1u);
  EXPECT_EQ(Registry::global().counter("curve.g2_prepared_builds").value(),
            1u);
  // Infinity still skips the build, exactly as the old global counted.
  const curve::G2Prepared inf_prep(curve::G2::infinity());
  EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared), 1u);
  EXPECT_GE(Registry::global().counter("curve.miller_loops").value(), 1u);
  EXPECT_GE(Registry::global().counter("curve.final_exps").value(), 1u);
}

#ifndef PEACE_OBS_DISABLED

TEST_F(ObsTest, SpanAttributesCryptoOps) {
  const auto& bn = curve::Bn254::get();
  obs::enable(true);
  obs::Tracer::global().clear();
  {
    obs::Span span("test.pairing_work", "test");
    (void)curve::pairing(bn.g1_gen, bn.g2_gen);
    (void)curve::pairing(bn.g1_gen, bn.g2_gen);
    span.arg("custom", 7);
  }
  const auto events = obs::Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  const obs::TraceEvent& e = events[0];
  EXPECT_STREQ(e.name, "test.pairing_work");
  EXPECT_EQ(e.ph, 'X');
  std::uint64_t pairings = 0, custom = 0;
  for (std::size_t i = 0; i < e.nargs; ++i) {
    if (std::string_view(e.args[i].key) == "pairings")
      pairings = e.args[i].value;
    if (std::string_view(e.args[i].key) == "custom") custom = e.args[i].value;
  }
  EXPECT_EQ(pairings, 2u);
  EXPECT_EQ(custom, 7u);
}

TEST_F(ObsTest, SpansRecordNothingWhenDisabled) {
  const auto& bn = curve::Bn254::get();
  obs::Tracer::global().clear();
  ASSERT_FALSE(obs::enabled());
  {
    obs::Span span("test.disabled", "test");
    EXPECT_FALSE(span.active());
    (void)curve::pairing(bn.g1_gen, bn.g2_gen);
  }
  EXPECT_EQ(obs::Tracer::global().event_count(), 0u);
}

TEST_F(ObsTest, ExportFormats) {
  obs::enable(true);
  obs::Tracer::global().clear();
  { obs::Span span("test.export", "test"); }
  obs::Tracer::global().instant_at("test.instant", "test", 1234,
                                   {{"k", 42}});
  obs::Tracer::global().async_begin("test.async", "test", 9, 1000);
  obs::Tracer::global().async_end("test.async", "test", 9, 2000);
  obs::enable(false);

  const std::string chrome = obs::Tracer::global().chrome_json();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"test.export\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(chrome.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(chrome.find("\"args\": {\"k\": 42}"), std::string::npos);
  // Both clock tracks are named.
  EXPECT_NE(chrome.find("wall-clock"), std::string::npos);
  EXPECT_NE(chrome.find("sim-time"), std::string::npos);

  const std::string jsonl = obs::Tracer::global().jsonl();
  std::size_t lines = 0;
  for (const char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, obs::Tracer::global().event_count());
}

TEST_F(ObsTest, SpanHistogramReceivesDuration) {
  Registry reg;
  Histogram& hist = reg.histogram("test.span_us");
  obs::enable(true);
  { obs::Span span("test.hist", "test", &hist); }
  obs::enable(false);
  EXPECT_EQ(hist.count(), 1u);
}

TEST_F(ObsTest, StreamingWritesThroughAndRetainsNothing) {
  // Satellite: the bounded-memory streaming mode. Events recorded while a
  // sink is attached go straight to disk and are NOT retained in memory —
  // the property that keeps a metro-scale day's trace memory flat.
  obs::enable(true);
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  const std::string path = ::testing::TempDir() + "peace_stream_test.jsonl";
  ASSERT_TRUE(tracer.stream_to(path));
  EXPECT_TRUE(tracer.streaming());
  for (std::uint64_t i = 0; i < 10; ++i)
    tracer.instant_at("test.stream", "test", 1000 + i, {{"i", i}});
  EXPECT_EQ(tracer.streamed_event_count(), 10u);
  EXPECT_EQ(tracer.event_count(), 0u);  // nothing retained
  ASSERT_TRUE(tracer.stop_streaming());
  EXPECT_FALSE(tracer.streaming());
  // After the sink detaches, recording retains in memory again.
  tracer.instant_at("test.retained", "test", 2000, {});
  EXPECT_EQ(tracer.event_count(), 1u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::size_t lines = 0;
  for (const char c : content) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 10u);
  EXPECT_NE(content.find("\"name\": \"test.stream\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, StreamSinkRotatesAtFlushBoundaries) {
  // Rotation contract (stream_sink.hpp): completed files become
  // "<path>.<n>", <path> is always the newest data, and lines never split
  // across files.
  const std::string path = ::testing::TempDir() + "peace_rotate_test.jsonl";
  obs::StreamSinkOptions options;
  options.flush_bytes = 64;    // flush almost every line
  options.rotate_bytes = 256;  // rotate every few lines
  obs::JsonlStreamSink sink;
  ASSERT_TRUE(sink.open(path, options));
  obs::TraceEvent e;
  e.name = "test.rotate";
  e.cat = "test";
  e.ph = 'i';
  for (int i = 0; i < 40; ++i) {
    e.ts_us = static_cast<std::uint64_t>(i);
    sink.write(e);
  }
  ASSERT_TRUE(sink.close());
  EXPECT_EQ(sink.events_written(), 40u);
  EXPECT_GE(sink.rotations(), 1u);

  // Every segment (rotated + current) holds only whole lines; together
  // they hold all 40 events.
  std::size_t total_lines = 0;
  std::vector<std::string> files;
  for (std::uint64_t n = 1; n <= sink.rotations(); ++n)
    files.push_back(path + "." + std::to_string(n));
  files.push_back(path);
  for (const std::string& file : files) {
    std::FILE* f = std::fopen(file.c_str(), "rb");
    ASSERT_NE(f, nullptr) << file;
    std::string content(1 << 16, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), f));
    std::fclose(f);
    if (!content.empty()) {
      EXPECT_EQ(content.back(), '\n') << file;
    }
    for (const char c : content) total_lines += c == '\n' ? 1 : 0;
    std::remove(file.c_str());
  }
  EXPECT_EQ(total_lines, 40u);
}

#endif  // PEACE_OBS_DISABLED

TEST_F(ObsTest, StatsAbsorptionIsIdempotent) {
  // Every field of every tabled stats struct gets a distinct value, set by
  // field name rather than through its table, so a swapped or misnamed
  // table row exports a wrong value under some name below.
  std::map<std::string, std::uint64_t> want;
  auto put = [&want](std::uint64_t& field, const char* name) {
    field = 1000 + want.size();
    want[name] = field;
  };
  proto::RouterStats r;
  put(r.beacons_sent, "router.beacons_sent");
  put(r.requests_received, "router.requests_received");
  put(r.accepted, "router.accepted");
  put(r.rejected_unknown_beacon, "router.rejected_unknown_beacon");
  put(r.rejected_stale, "router.rejected_stale");
  put(r.rejected_replay, "router.rejected_replay");
  put(r.rejected_puzzle, "router.rejected_puzzle");
  put(r.rejected_bad_signature, "router.rejected_bad_signature");
  put(r.rejected_revoked, "router.rejected_revoked");
  put(r.signature_verifications, "router.signature_verifications");
  put(r.verify_batches, "router.verify_batches");
  put(r.batched_requests, "router.batched_requests");
  put(r.rl_deltas_applied, "router.rl_deltas_applied");
  put(r.rl_deltas_ignored, "router.rl_deltas_ignored");
  put(r.rl_deltas_rejected, "router.rl_deltas_rejected");
  put(r.rl_resyncs_requested, "router.rl_resyncs_requested");
  put(r.rl_resyncs_completed, "router.rl_resyncs_completed");
  put(r.confirms_resent, "router.confirms_resent");
  put(r.epoch_fallback_scans, "router.epoch_fallback_scans");
  proto::UserStats u;
  put(u.beacons_seen, "user.beacons_seen");
  put(u.beacons_rejected, "user.beacons_rejected");
  put(u.sessions_established, "user.sessions_established");
  put(u.peer_sessions_established, "user.peer_sessions_established");
  put(u.puzzle_hashes, "user.puzzle_hashes");
  put(u.pending_expired, "user.pending_expired");
  put(u.pending_evicted, "user.pending_evicted");
  put(u.duplicate_hellos, "user.duplicate_hellos");
  put(u.duplicate_replies, "user.duplicate_replies");
  groupsig::OpCounters ops;
  put(ops.g1_exp, "groupsig.verify.g1_exp");
  put(ops.g2_exp, "groupsig.verify.g2_exp");
  put(ops.gt_exp, "groupsig.verify.gt_exp");
  put(ops.pairings, "groupsig.verify.pairings");
  put(ops.hash_to_group, "groupsig.verify.hash_to_group");
  revoke::SharedRevocationStats rv;
  put(rv.full_installs, "revocation.full_installs");
  put(rv.deltas_applied, "revocation.deltas_applied");
  put(rv.deltas_stale, "revocation.deltas_stale");
  put(rv.deltas_gap, "revocation.deltas_gap");
  put(rv.deltas_rejected, "revocation.deltas_rejected");
  put(rv.snapshots_published, "revocation.snapshots_published");
  put(rv.tokens_retagged, "revocation.tokens_retagged");
  put(rv.epoch_rolls, "revocation.epoch_rolls");
  mesh::NetworkStats net;
  put(net.frames_transmitted, "mesh.frames_transmitted");
  put(net.users_removed, "mesh.users_removed");
  put(net.frames_lost, "mesh.frames_lost");
  put(net.data_delivered, "mesh.data_delivered");
  put(net.data_undeliverable, "mesh.data_undeliverable");
  put(net.relay_hops_total, "mesh.relay_hops_total");
  put(net.internet_delivered, "mesh.internet_delivered");
  put(net.backbone_hops_total, "mesh.backbone_hops_total");
  put(net.backbone_mac_failures, "mesh.backbone_mac_failures");
  put(net.retransmissions, "mesh.retransmissions");
  put(net.handshake_timeouts, "mesh.handshake_timeouts");
  put(net.rekeys, "mesh.rekeys");
  put(net.failovers, "mesh.failovers");
  put(net.corrupted_rejected, "mesh.corrupted_rejected");
  put(net.frames_duplicated, "mesh.frames_duplicated");
  put(net.frames_delayed, "mesh.frames_delayed");
  put(net.frames_partitioned, "mesh.frames_partitioned");
  mesh::MetroStats metro;
  put(metro.barriers, "metro.barriers");
  put(metro.msgs_routed, "metro.msgs_routed");
  put(metro.frames_posted, "metro.frames_posted");
  put(metro.frames_shed, "metro.frames_shed");
  put(metro.frames_dropped, "metro.frames_dropped");
  put(metro.relay_delivered, "metro.relay_delivered");
  put(metro.relay_dropped, "metro.relay_dropped");
  put(metro.handoffs_parked, "metro.handoffs_parked");
  put(metro.handoffs_dropped, "metro.handoffs_dropped");
  put(metro.handoffs_completed, "metro.handoffs_completed");
  put(metro.inbox_dropped, "metro.inbox_dropped");
  mesh::FrameArenaStats arena;
  put(arena.acquired, "metro.arena.acquired");
  put(arena.reused, "metro.arena.reused");
  put(arena.allocated, "metro.arena.allocated");
  put(arena.cap_rejections, "metro.arena.cap_rejections");
  mesh::SyntheticStats synthetic;
  put(synthetic.associations, "metro_city.synthetic.associations");
  put(synthetic.data_frames, "metro_city.synthetic.data_frames");
  put(synthetic.internet_frames, "metro_city.synthetic.internet_frames");
  put(synthetic.moved, "metro_city.synthetic.moved");
  ASSERT_EQ(want.size(),
            obs::kFields<proto::RouterStats>.size() +
                obs::kFields<proto::UserStats>.size() +
                obs::kFields<groupsig::OpCounters>.size() +
                obs::kFields<revoke::SharedRevocationStats>.size() +
                obs::kFields<mesh::NetworkStats>.size() +
                obs::kFields<mesh::MetroStats>.size() +
                obs::kFields<mesh::FrameArenaStats>.size() +
                obs::kFields<mesh::SyntheticStats>.size());

  for (int publish = 0; publish < 2; ++publish) {  // set(), not add()
    obs::absorb(r);
    obs::absorb(u);
    obs::absorb(ops);
    obs::absorb(rv);
    obs::absorb(net);
    obs::absorb(metro);
    obs::absorb(arena);
    obs::absorb(synthetic);
  }
  for (const auto& [name, value] : want)
    EXPECT_EQ(Registry::global().counter(name).value(), value) << name;

  const proto::RouterStats more = obs::sum(r, r);
  EXPECT_EQ(more.accepted, 2 * r.accepted);
  obs::absorb(more);
  EXPECT_EQ(Registry::global().counter("router.accepted").value(),
            2 * r.accepted);
}

TEST_F(ObsTest, FieldTablesAreCatalogued) {
  // Every counter a table exports — the field tables, the crypto op table,
  // the persist.* table and the per-kind sec.* counters — has its
  // backticked name in the docs/OBSERVABILITY.md catalogue.
  std::ifstream in(PEACE_OBSERVABILITY_MD);
  ASSERT_TRUE(in) << PEACE_OBSERVABILITY_MD;
  const std::string doc{std::istreambuf_iterator<char>(in), {}};
  auto catalogued = [&doc](const std::string& name) {
    EXPECT_NE(doc.find('`' + name + '`'), std::string::npos)
        << name << " is missing from the catalogue";
  };
  auto check = [&catalogued](const auto& table) {
    for (const auto& f : table) catalogued(f.name);
  };
  check(obs::kFields<proto::RouterStats>);
  check(obs::kFields<proto::UserStats>);
  check(obs::kFields<groupsig::OpCounters>);
  check(obs::kFields<revoke::SharedRevocationStats>);
  check(obs::kFields<mesh::NetworkStats>);
  check(obs::kFields<mesh::MetroStats>);
  check(obs::kFields<mesh::FrameArenaStats>);
  check(obs::kFields<mesh::SyntheticStats>);
  check(obs::kFields<obs::HealthCounts>);
  // The per-shard gauges the monitor names at run time.
  catalogued("health.s<id>.alerts");
  catalogued("health.s<id>.<kind>.window");
  for (const obs::OpRow& op : obs::kOps) catalogued(op.metric);
  for (const persist::CounterRow& c : persist::kCounters) catalogued(c.metric);
  for (std::size_t k = 0; k < obs::kSecEventKindCount; ++k)
    catalogued(std::string("sec.") +
               obs::sec_event_name(static_cast<obs::SecEventKind>(k)));
}

TEST_F(ObsTest, PooledAndSequentialCountersMatch) {
  // The deterministic-counter contract: the same batch of M.2s verified
  // sequentially and through a 4-thread VerifyPool performs the same
  // crypto work, so the curve.* registry deltas are identical.
  constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;
  proto::NetworkOperator no(crypto::Drbg::from_string("obs-pool-no"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("obs-pool-g", 8, ttp);
  auto provision = no.provision_router(1, kFarFuture);
  std::map<std::string, proto::GroupManager::Enrollment> enrollments;
  for (int i = 0; i < 3; ++i) {
    const std::string uid = "obs-sender" + std::to_string(i);
    enrollments.emplace(uid, gm.enroll(uid, ttp));
  }

  const auto run = [&](unsigned threads) {
    // Same keys and DRBG seeds at both thread counts: byte-identical
    // beacons, so byte-identical M.2s.
    proto::ProtocolConfig config;
    config.verify_threads = threads;
    proto::MeshRouter router(1, provision.keypair, provision.certificate,
                             no.params(),
                             crypto::Drbg::from_string("obs-pool-router"),
                             config);
    router.install_revocation_lists(no.current_crl(), no.current_url());
    const proto::BeaconMessage beacon = router.make_beacon(1000);
    std::vector<proto::AccessRequest> batch;
    for (const auto& [uid, enrollment] : enrollments) {
      proto::User sender(uid, no.params(), crypto::Drbg::from_string(uid));
      sender.complete_enrollment(enrollment);
      batch.push_back(sender.process_beacon(beacon, 1000).value());
    }
    Registry::global().reset();
    const auto outcomes = router.handle_access_requests(batch, 1010);
    std::size_t accepted = 0;
    for (const auto& o : outcomes) accepted += o.has_value() ? 1 : 0;
    auto& reg = Registry::global();
    return std::tuple{accepted,
                      reg.counter("curve.pairings").value(),
                      reg.counter("curve.miller_loops").value(),
                      reg.counter("curve.final_exps").value(),
                      reg.counter("curve.g2_prepared_builds").value(),
                      reg.counter("curve.msm_calls").value(),
                      reg.counter("curve.msm_terms").value()};
  };

  const auto seq = run(1);
  const auto pooled = run(4);
  EXPECT_EQ(std::get<0>(seq), 3u);
  EXPECT_EQ(seq, pooled);
}

TEST_F(ObsTest, PooledAndSequentialFoldCountersMatch) {
  // The same contract for folds big enough to split into several jobs per
  // stage: a 16-M.2 batch with one forgery, whose failed fold bisects, and
  // an all-honest epoch-mode batch of M.2s answering beacons of two
  // epochs. Every curve.* delta and the router's op counters must match
  // between the inline router and the 4-thread one.
  constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;
  constexpr std::size_t kBatch = 16;
  proto::NetworkOperator no(crypto::Drbg::from_string("obs-fold-no"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("obs-fold-g", kBatch, ttp);
  auto provision = no.provision_router(1, kFarFuture);
  std::vector<proto::GroupManager::Enrollment> enrollments;
  for (std::size_t i = 0; i < kBatch; ++i)
    enrollments.push_back(gm.enroll("obs-fold" + std::to_string(i), ttp));

  const auto run = [&](unsigned threads, bool two_epochs) {
    proto::ProtocolConfig config;
    config.verify_threads = threads;
    if (two_epochs) config.revocation_epoch_ms = 60'000;
    proto::MeshRouter router(1, provision.keypair, provision.certificate,
                             no.params(),
                             crypto::Drbg::from_string("obs-fold-router"),
                             config);
    router.install_revocation_lists(no.current_crl(), no.current_url());
    // Without epochs both beacons are at epoch 0 and only the second is
    // answered; with them, the first is epoch 1 and the second epoch 2.
    const proto::BeaconMessage old_beacon = router.make_beacon(59'000);
    const proto::BeaconMessage beacon = router.make_beacon(61'000);
    std::vector<proto::AccessRequest> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::string uid = "obs-fold" + std::to_string(i);
      proto::User sender(uid, no.params(), crypto::Drbg::from_string(uid),
                         config);
      sender.complete_enrollment(enrollments[i]);
      const bool old = two_epochs && i % 2 == 1;
      batch.push_back(
          sender.process_beacon(old ? old_beacon : beacon, 61'000).value());
    }
    if (!two_epochs) batch[5].ts2 += 1;  // signature no longer covers it
    Registry::global().reset();
    const auto outcomes = router.handle_access_requests(batch, 61'010);
    std::size_t accepted = 0;
    for (const auto& o : outcomes) accepted += o.has_value() ? 1 : 0;
    std::array<std::uint64_t, obs::kOpCount> ops{};
    for (std::size_t k = 0; k < obs::kOpCount; ++k)
      ops[k] = obs::op_count(obs::kOps[k].op);
    return std::tuple{accepted, ops, router.verify_ops()};
  };

  for (const bool two_epochs : {false, true}) {
    const auto seq = run(1, two_epochs);
    const auto pooled = run(4, two_epochs);
    EXPECT_EQ(seq, pooled) << two_epochs;
    EXPECT_EQ(std::get<0>(seq), two_epochs ? kBatch : kBatch - 1);
    // Two epochs, no revoked member: one fold's Eq.2 is every pairing.
    if (two_epochs) {
      EXPECT_EQ(std::get<2>(seq).pairings, 2u);
    }
  }
}

TEST_F(ObsTest, PooledAndSequentialCountersMatchOnALargeUrl) {
  // The same contract for the one revocation check that has the pool to
  // itself: a lone M.2 from a revoked member, scanned against a 256-token
  // NO-signed URL that lists it first. The 4-thread router runs the scan
  // as one job, exactly as the inline router does, so it does the same
  // work.
  constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;
  constexpr std::size_t kUrlSize = 256;
  proto::NetworkOperator no(crypto::Drbg::from_string("obs-url-no"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager listed = no.register_group("obs-url-g", kUrlSize, ttp);
  const auto revoked = listed.enroll("obs-revoked", ttp);
  no.revoke_user_key(revoked.index, 100);
  for (const auto& entry : no.grt_entries())
    no.revoke_user_key(entry.index, 100);  // re-revoking is a no-op
  ASSERT_EQ(no.current_url().entries.size(), kUrlSize);
  auto provision = no.provision_router(1, kFarFuture);

  const auto run = [&](unsigned threads) {
    proto::ProtocolConfig config;
    config.verify_threads = threads;
    proto::MeshRouter router(1, provision.keypair, provision.certificate,
                             no.params(),
                             crypto::Drbg::from_string("obs-url-router"),
                             config);
    router.install_revocation_lists(no.current_crl(), no.current_url());
    const proto::BeaconMessage beacon = router.make_beacon(1000);
    proto::User sender("obs-revoked", no.params(),
                       crypto::Drbg::from_string("obs-revoked"));
    sender.complete_enrollment(revoked);
    const proto::AccessRequest m2 = sender.process_beacon(beacon, 1000).value();
    Registry::global().reset();
    router.handle_access_requests({&m2, 1}, 1010);
    auto& reg = Registry::global();
    return std::tuple{router.stats().rejected_revoked,
                      reg.counter("curve.pairings").value(),
                      reg.counter("curve.miller_loops").value(),
                      reg.counter("curve.final_exps").value(),
                      reg.counter("curve.fp12_inverses").value(),
                      reg.counter("curve.g2_prepared_builds").value()};
  };

  const auto seq = run(1);
  const auto pooled = run(4);
  EXPECT_EQ(std::get<0>(seq), 1u);  // revoked
  EXPECT_GE(std::get<2>(seq), kUrlSize);  // every token's Miller loop
  EXPECT_EQ(seq, pooled);
}

#ifndef PEACE_OBS_DISABLED

TEST_F(ObsTest, SecEventStreamBoundedUnderBurst) {
  // Bounded-memory contract (sec_event.hpp): a sustained burst beyond the
  // ring capacity sheds the overflow into sec.events_shed instead of
  // growing; the always-on per-kind counter still counts every emission.
  obs::enable(true);
  obs::drain_sec_events();  // start from an empty ring
  const std::uint64_t count_before =
      obs::sec_event_count(obs::SecEventKind::kAuthReject);
  const std::uint64_t shed_before = obs::sec_events_shed();

  const std::size_t burst = obs::kSecRingCapacity + 300;
  for (std::size_t i = 0; i < burst; ++i)
    obs::sec_emit(obs::SecEventKind::kAuthReject, 1000 + i, 1, 2);

  EXPECT_EQ(obs::sec_event_count(obs::SecEventKind::kAuthReject),
            count_before + burst);
  EXPECT_EQ(obs::sec_events_shed(), shed_before + 300);

  std::vector<obs::SecEvent> drained;
  obs::drain_sec_events(&drained);
  EXPECT_EQ(drained.size(), obs::kSecRingCapacity);
  // Shed-newest: the ring keeps the oldest events of the burst.
  ASSERT_FALSE(drained.empty());
  EXPECT_EQ(drained.front().sim_ms, 1000u);
  EXPECT_EQ(drained.back().sim_ms, 1000u + obs::kSecRingCapacity - 1);
}

TEST_F(ObsTest, SecEventsIgnoredWhenRuntimeDisabled) {
  // Runtime toggle off: the per-kind counter still counts (always-on
  // substrate), but no record reaches the ring — drain finds nothing.
  obs::enable(true);
  obs::drain_sec_events();
  obs::enable(false);
  const std::uint64_t before =
      obs::sec_event_count(obs::SecEventKind::kSessionRekey);
  obs::sec_emit(obs::SecEventKind::kSessionRekey, 5000, 9);
  EXPECT_EQ(obs::sec_event_count(obs::SecEventKind::kSessionRekey),
            before + 1);
  obs::enable(true);
  std::vector<obs::SecEvent> drained;
  obs::drain_sec_events(&drained);
  EXPECT_TRUE(drained.empty());
}

TEST_F(ObsTest, StreamRotationNeverSplitsSecEventLines) {
  // Satellite: security events drain through the same rotating JSONL sink
  // as every trace record. Rotation mid-burst must never split a line
  // across segment files, and every line must be standalone-parseable.
  obs::enable(true);
  obs::drain_sec_events();  // don't let earlier tests' events leak in
  obs::Tracer& tracer = obs::Tracer::global();
  const std::string path =
      ::testing::TempDir() + "peace_sec_rotate_test.jsonl";
  obs::StreamSinkOptions options;
  options.flush_bytes = 64;
  options.rotate_bytes = 512;  // rotate mid-burst, repeatedly
  ASSERT_TRUE(tracer.stream_to(path, options));
  for (int i = 0; i < 64; ++i)
    obs::sec_emit(obs::SecEventKind::kReplayDetected, 2000 + i, 3, 1);
  obs::drain_sec_events();
  const std::uint64_t streamed = tracer.streamed_event_count();
  ASSERT_TRUE(tracer.stop_streaming());
  EXPECT_GE(streamed, 64u);

  std::size_t total_lines = 0, sec_lines = 0;
  bool any_rotated = false;
  for (std::uint64_t n = 1;; ++n) {
    const std::string file = path + "." + std::to_string(n);
    std::FILE* probe = std::fopen(file.c_str(), "rb");
    if (probe == nullptr) break;
    std::fclose(probe);
    any_rotated = true;
  }
  EXPECT_TRUE(any_rotated);
  std::vector<std::string> files;
  for (std::uint64_t n = 1;; ++n) {
    const std::string file = path + "." + std::to_string(n);
    std::FILE* probe = std::fopen(file.c_str(), "rb");
    if (probe == nullptr) break;
    std::fclose(probe);
    files.push_back(file);
  }
  files.push_back(path);
  for (const std::string& file : files) {
    std::FILE* f = std::fopen(file.c_str(), "rb");
    ASSERT_NE(f, nullptr) << file;
    std::string content(1 << 16, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), f));
    std::fclose(f);
    if (!content.empty()) {
      EXPECT_EQ(content.back(), '\n') << file;
    }
    // Whole lines only: each is one complete {...} JSON object.
    std::size_t start = 0;
    while (start < content.size()) {
      const std::size_t nl = content.find('\n', start);
      ASSERT_NE(nl, std::string::npos) << file << ": trailing partial line";
      const std::string line = content.substr(start, nl - start);
      EXPECT_EQ(line.front(), '{') << file;
      EXPECT_EQ(line.back(), '}') << file;
      ++total_lines;
      if (line.find("\"cat\": \"sec\"") != std::string::npos) ++sec_lines;
      start = nl + 1;
    }
    std::remove(file.c_str());
  }
  EXPECT_EQ(total_lines, streamed);
  EXPECT_EQ(sec_lines, 64u);
}

#endif  // PEACE_OBS_DISABLED

TEST_F(ObsTest, PooledAndSequentialSecEventCountsMatch) {
  // The event-count half of telemetry neutrality: one mixed M.2 batch —
  // good, forged, revoked, stale — produces identical per-kind sec.*
  // counter deltas whether the router verifies sequentially or on a
  // 4-thread pool, because emissions happen only in the sequential
  // precheck/apply passes.
  constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;
  proto::NetworkOperator no(crypto::Drbg::from_string("sec-pool-no"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("sec-pool-g", 8, ttp);
  const auto revoked_cred = gm.enroll("sec-mole", ttp);
  no.revoke_user_key(revoked_cred.index, 500);

  std::map<std::string, proto::GroupManager::Enrollment> enrollments;
  enrollments.emplace("sec-mole", revoked_cred);
  const auto make_user = [&](const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no.params(), crypto::Drbg::from_string(uid));
    if (enrollments.find(uid) == enrollments.end())
      enrollments.emplace(uid, gm.enroll(uid, ttp));
    user->complete_enrollment(enrollments.at(uid));
    return user;
  };

  const auto run = [&](unsigned threads) {
    proto::ProtocolConfig config;
    config.verify_threads = threads;
    const auto provision = no.provision_router(1, kFarFuture);
    proto::MeshRouter router(1, provision.keypair, provision.certificate,
                             no.params(),
                             crypto::Drbg::from_string("sec-pool-router"),
                             config);
    router.install_revocation_lists(no.current_crl(), no.current_url());
    const proto::BeaconMessage beacon = router.make_beacon(1000);

    std::vector<proto::AccessRequest> batch;
    for (int i = 0; i < 2; ++i) {
      auto good = make_user("sec-good" + std::to_string(i));
      batch.push_back(*good->process_beacon(beacon, 1000));
    }
    auto forger = make_user("sec-forger");
    for (int i = 0; i < 2; ++i) {
      auto m2 = *forger->process_beacon(beacon, 1000);
      m2.ts2 += 1;  // signature no longer covers the message
      batch.push_back(std::move(m2));
    }
    auto mole = make_user("sec-mole");
    batch.push_back(*mole->process_beacon(beacon, 1000));
    auto late = make_user("sec-late");
    batch.push_back(*late->process_beacon(beacon, 1000));
    // Far outside replay_window_ms: pass 1 rejects on freshness before any
    // signature work, so this never reaches the batch verifier.
    batch.back().ts2 = 20'000;

    std::array<std::uint64_t, obs::kSecEventKindCount> before{};
    for (std::size_t k = 0; k < obs::kSecEventKindCount; ++k)
      before[k] = obs::sec_event_count(static_cast<obs::SecEventKind>(k));
    (void)router.handle_access_requests(batch, 1010);
    std::array<std::uint64_t, obs::kSecEventKindCount> delta{};
    for (std::size_t k = 0; k < obs::kSecEventKindCount; ++k)
      delta[k] = obs::sec_event_count(static_cast<obs::SecEventKind>(k)) -
                 before[k];
    return delta;
  };

  const auto seq = run(1);
  const auto pooled = run(4);
  EXPECT_EQ(seq, pooled);
  using K = obs::SecEventKind;
  EXPECT_EQ(seq[static_cast<std::size_t>(K::kAuthReject)], 3u);  // 2 forged
                                                                 // + 1 stale
  EXPECT_EQ(seq[static_cast<std::size_t>(K::kBatchForgeryAttributed)], 2u);
  EXPECT_EQ(seq[static_cast<std::size_t>(K::kRevocationHit)], 1u);
}

}  // namespace
}  // namespace peace
