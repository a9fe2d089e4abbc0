// admission: one router at a beacon burst. Batches of M.2s from distinct
// users arrive at MeshRouter::handle_access_requests, which verifies them on
// a VerifyPool (caller + 3 workers) with randomized batch verification; every
// kForgedEvery-th batch carries one forged M.2 that must be rejected. The
// M.2s are epoch-mode signatures made once before the timed phase; the
// router answers the revocation check from the O(1) epoch index over a
// pre-populated URL. Each round replays them into a router rebuilt from the
// same seed: same beacon, same batch salt, empty replay cache.
#include "common/serde.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace peace;

constexpr std::size_t kBatch = 16;          // M.2s per batch call
constexpr std::size_t kBatchesPerRound = 8; // batch calls per router lifetime
constexpr std::size_t kForgedEvery = 4;     // one batch in 4 has a forgery
constexpr unsigned kThreads = 4;            // VerifyPool: caller + workers
constexpr std::size_t kRevoked = 32;        // URL tokens in the epoch index
constexpr groupsig::Epoch kEpoch = 7;
constexpr Timestamp kBeaconAt = 1'000'000;
constexpr proto::RouterId kRouterId = 1;
constexpr double kBatchesPerSecond = 12;    // nominal rate sizing a run
constexpr std::size_t kSpeedupRounds = 2;   // traced: 1-thread comparison

/// One batch as the router receives it, with what the client side needs to
/// check the answers.
struct Batch {
  std::vector<proto::AccessRequest> m2s;
  std::vector<curve::G1> shared;  // each user's DH key K, to check M.3 with
  std::size_t forged_at = kBatch; // index of the forged M.2; kBatch: none
};

struct World {
  explicit World(const std::string& label)
      : label(label), d(label, kBatch + 1 + kRevoked) {
    d.enroll("u", kBatch + 1 + kRevoked);
    for (std::size_t i = kBatch + 1; i < d.members.size(); ++i)
      d.no.revoke_user_key(d.members[i].index, 100);
    revocation =
        std::make_shared<revoke::SharedRevocationState>(d.no.npk());
    revocation->install_full(d.no.current_crl(), d.no.current_url());
    revocation->set_epoch(d.no.gpk(), kEpoch);
    provision = d.no.provision_router(kRouterId, kNoExpiry);
  }

  /// A router freshly built from the fixed seed and provision.
  std::unique_ptr<proto::MeshRouter> router(unsigned threads) const {
    proto::ProtocolConfig config;
    config.verify_threads = threads;
    return std::make_unique<proto::MeshRouter>(
        kRouterId, provision.keypair, provision.certificate, d.no.params(),
        crypto::Drbg::from_string(label + "/router"), config, revocation);
  }

  std::string label;
  Deployment d;
  std::shared_ptr<revoke::SharedRevocationState> revocation;
  proto::NetworkOperator::RouterProvision provision;
};

class Admission final : public Workload {
 public:
  explicit Admission(const RunOptions& opt)
      : opt_(opt),
        rounds_((op_budget(opt, kBatchesPerSecond, kBatchesPerRound) +
                 kBatchesPerRound - 1) /
                kBatchesPerRound) {}

  void setup() override {
    worlds_.push_back(std::make_unique<World>(seed_label(opt_, "world")));
  }

  PassResult run(std::size_t index, SpanLog& spans, Tally& tally) override {
    World& w = *worlds_.at(index);
    if (batches_.empty()) make_inputs(w);
    OpSnapshot curve_before = OpSnapshot::take();
    groupsig::OpCounters ops;

    // Only the handle_access_requests calls are timed and counted: the
    // router rebuild between rounds is not part of a beacon burst.
    PassResult out;
    clean_per_request_ = {};
    forged_per_request_ = {};
    for (std::size_t round = 0; round < rounds_; ++round) {
      const OpSnapshot rebuild = OpSnapshot::take();
      auto router = w.router(kThreads);
      const auto beacon = spans.call("router.make_beacon", round, [&] {
        return router->make_beacon(kBeaconAt);
      });
      curve_before.skip(rebuild, OpSnapshot::take());
      tally.expect(true, beacon.g_rr == beacon_.g_rr,
                   "rebuilt router repeats its beacon");
      for (std::size_t b = 0; b < batches_.size(); ++b) {
        const auto results = time_batch(*router, b, spans, round, out);
        check(results, b, tally, out);
      }
      ops.merge(router->verify_ops());
    }
    per_request_ops(ops, {}, curve_before, out.requests, counts_);
    return out;
  }

  void layers(const PassResult&, const SpanLog& spans, Tally& tally,
              Layers& out) override {
    out.set("router.make_beacon_ms", spans.median_ms("router.make_beacon"));
    const double clean = clean_per_request_.median();
    out.set("router.batch_per_request_ms", clean);
    out.set("router.forged_batch_cost_ratio",
            clean > 0 ? forged_per_request_.median() / clean : 0);
    out.set("verify_pool.speedup", pool_speedup(tally));
    counts_.add_to(out);
  }

  UnitInputs unit_inputs() override {
    const Deployment& d = worlds_.front()->d;
    return unit_inputs_from(d.no.gpk(), d.members, d.no.current_url(), kBatch,
                            kBatch, seed_label(opt_, "unit"));
  }

  const char* op_name() const override { return "batch"; }

 private:
  /// Signs every batch once against the seed router's first beacon.
  void make_inputs(const World& w) {
    beacon_ = w.router(1)->make_beacon(kBeaconAt);
    crypto::Drbg rng = crypto::Drbg::from_string(seed_label(opt_, "inputs"));
    const auto& gpk = w.d.no.gpk();
    for (std::size_t b = 0; b < kBatchesPerRound; ++b) {
      Batch batch;
      const std::size_t forged_at = rng.next_u64() % kBatch;
      if (b % kForgedEvery == kForgedEvery - 1) batch.forged_at = forged_at;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const bool forged = k == batch.forged_at;
        const Member& signer = w.d.members[forged ? kBatch : k];
        const curve::Fr r_j = curve::random_fr(rng);
        proto::AccessRequest m2;
        m2.g_rj = beacon_.g * r_j;
        m2.g_rr = beacon_.g_rr;
        m2.ts2 = kBeaconAt + 1;
        m2.signature =
            groupsig::sign(gpk, signer.user->credential(signer.index.group),
                           m2.signed_payload(), rng, kEpoch);
        // A forgery: the signature no longer covers the message.
        if (forged) m2.ts2 += 1;
        batch.m2s.push_back(std::move(m2));
        batch.shared.push_back(beacon_.g_rr * r_j);
      }
      batches_.push_back(std::move(batch));
    }
  }

  std::vector<std::optional<proto::MeshRouter::AccessOutcome>> time_batch(
      proto::MeshRouter& router, std::size_t b, SpanLog& spans,
      std::size_t round, PassResult& out) {
    const auto t0 = Clock::now();
    auto results = spans.call("router.access_requests", round, [&] {
      return router.handle_access_requests(batches_[b].m2s, kBeaconAt + 2 + b);
    });
    const double ms = ms_between(t0, Clock::now());
    out.wall_s += ms / 1000;
    out.op_ms.add(ms);
    out.requests += kBatch;
    const bool forged = batches_[b].forged_at < kBatch;
    (forged ? forged_per_request_ : clean_per_request_).add(ms / kBatch);
    return results;
  }

  void check(
      const std::vector<std::optional<proto::MeshRouter::AccessOutcome>>& res,
      std::size_t b, Tally& tally, PassResult& out) {
    const Batch& batch = batches_[b];
    for (std::size_t k = 0; k < kBatch; ++k) {
      const bool forged = k == batch.forged_at;
      const bool admitted =
          tally.expect(!forged, res[k].has_value(),
                       forged ? "forged M.2 rejected" : "honest M.2 admitted");
      if (!admitted || forged) continue;
      ++out.accepted;
      // The user's side of M.3: decrypt under K and check the echo.
      const auto& m3 = res[k]->confirm;
      const Bytes sid = proto::session_id_from(m3.g_rr, m3.g_rj);
      Writer expect;
      expect.u32(kRouterId);
      expect.raw(curve::g1_to_bytes(batch.m2s[k].g_rj));
      expect.raw(curve::g1_to_bytes(batch.m2s[k].g_rr));
      const auto payload =
          proto::confirm_open(batch.shared[k], sid, m3.ciphertext);
      tally.expect(true, payload.has_value() && *payload == expect.data(),
                   "M.3 verified");
    }
  }

  /// Per-request batch time at 1 thread over the same at kThreads, from
  /// alternating rounds on the traced run's deployment.
  double pool_speedup(Tally& tally) {
    World& w = *worlds_.back();
    Samples one, many;
    for (std::size_t i = 0; i < kSpeedupRounds; ++i) {
      for (unsigned threads : {1u, kThreads}) {
        auto router = w.router(threads);
        router->make_beacon(kBeaconAt);
        PassResult scratch;
        for (std::size_t b = 0; b < batches_.size(); ++b) {
          if (batches_[b].forged_at < kBatch) continue;
          const auto t0 = Clock::now();
          const auto results = router->handle_access_requests(
              batches_[b].m2s, kBeaconAt + 2 + b);
          (threads == 1 ? one : many).add(ms_between(t0, Clock::now()));
          check(results, b, tally, scratch);
        }
      }
    }
    return many.median() > 0 ? one.median() / many.median() : 0;
  }

  RunOptions opt_;
  std::size_t rounds_;
  std::vector<std::unique_ptr<World>> worlds_;
  proto::BeaconMessage beacon_;
  std::vector<Batch> batches_;
  Samples clean_per_request_;
  Samples forged_per_request_;
  OpCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_admission(const RunOptions& opt) {
  return std::make_unique<Admission>(opt);
}

}  // namespace perfbench
