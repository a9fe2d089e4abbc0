// revocation_churn: reads mixed with writes on the accountability path. A
// durable ControlPlane (WAL in the checkout, fsync on every append) revokes
// one enrolled user every kRevokeEvery requests; each RLDeltaAnnounce is
// applied through handle_rl_announce at kRouters routers, each holding its
// own revocation state. The routers verify inline and check revocation at
// epoch 0: a linear token scan over a URL that starts at kInitialUrl tokens
// and grows by one per revocation. Reads are M.2s signed before the timed
// phase by honest users and by users already revoked when the read runs.
#include <cmath>
#include <filesystem>

#include "layers.hpp"
#include "peace/persist/control.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace peace;

// A run of --seconds 10 makes 88 reads and 44 revocations: at least ten
// revocation latencies lie beyond their median. A p90 would need 100
// revocations, and every revocation lengthens every later honest scan, so
// the run reports no p90 of revocation latency.
constexpr std::size_t kRouters = 3;
constexpr std::size_t kHonest = 8;       // readers never revoked
constexpr std::size_t kInitialUrl = 16;  // users revoked before the run
constexpr std::size_t kBatch = 2;        // reads per batch call
constexpr std::size_t kRevokeEvery = 2;  // requests between revocations
constexpr std::size_t kRevokedShare = 4; // one read in 4 is by a revoked user
constexpr Timestamp kBeaconAt = 1'000'000;
constexpr double kReadsPerSecond = 8.8;  // nominal rate sizing a run
static_assert(kRevokeEvery % kBatch == 0, "revocations fall between batches");

struct Read {
  std::size_t member = 0;  // index into World::members
  std::size_t router = 0;
  bool revoked = false;    // expected verdict: rejected as revoked
  std::size_t scan = 0;    // tokens the check walks (URL size or hit + 1)
};

struct World {
  World(const std::string& label, const std::string& dir, std::size_t victims)
      : dir(dir) {
    std::filesystem::remove_all(dir);
    persist::ControlPlaneOptions opts;
    opts.store.sync_each_append = true;
    cp = std::make_unique<persist::ControlPlane>(persist::ControlPlane::create(
        dir, crypto::Drbg::from_string(label + "/no"), opts));
    const std::size_t users = kHonest + kInitialUrl + victims;
    gid = cp->register_group(label + "-group", users);
    for (std::size_t i = 0; i < users; ++i) {
      const std::string uid = "u" + std::to_string(i);
      auto user = std::make_unique<proto::User>(
          uid, cp->no().params(),
          crypto::Drbg::from_string(label + "/user/" + uid));
      const auto enrollment = cp->enroll(gid, uid);
      const auto receipt = user->complete_enrollment(enrollment);
      cp->record_receipt(enrollment, user->receipt_public_key(), receipt);
      members.push_back(Member{std::move(user), enrollment.index});
    }
    for (std::size_t i = 0; i < kInitialUrl; ++i)
      cp->revoke_user_key(members[kHonest + i].index, 100);
    for (std::size_t r = 0; r < kRouters; ++r) {
      const auto id = static_cast<proto::RouterId>(r + 1);
      auto provision = cp->provision_router(id, kNoExpiry);
      auto router = std::make_unique<proto::MeshRouter>(
          id, provision.keypair, provision.certificate, cp->no().params(),
          crypto::Drbg::from_string(label + "/router/" + std::to_string(id)));
      router->install_revocation_lists(cp->no().current_crl(),
                                       cp->no().current_url());
      beacons.push_back(router->make_beacon(kBeaconAt));
      routers.push_back(std::move(router));
    }
  }
  ~World() {
    cp.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::string dir;
  std::unique_ptr<persist::ControlPlane> cp;
  proto::GroupId gid = 0;
  std::vector<Member> members;
  std::vector<std::unique_ptr<proto::MeshRouter>> routers;
  std::vector<proto::BeaconMessage> beacons;
};

class Churn final : public Workload {
 public:
  explicit Churn(const RunOptions& opt)
      : opt_(opt),
        reads_(op_budget(opt, kReadsPerSecond, 2 * kRevokeEvery) / kBatch *
               kBatch),
        victims_(reads_ / kRevokeEvery) {
    plan();
  }

  void setup() override {
    const std::size_t k = worlds_.size();
    worlds_.push_back(std::make_unique<World>(
        seed_label(opt_, "world"),
        opt_.work_dir + "/churn-wal-" + std::to_string(k), victims_));
  }

  PassResult run(std::size_t index, SpanLog& spans, Tally& tally) override {
    World& w = *worlds_.at(index);
    // Inputs: every read's M.2, signed against its router's beacon by the
    // user that will later check the M.3.
    std::vector<proto::AccessRequest> m2s;
    for (const Read& r : reads_plan_) {
      auto m2 = w.members[r.member].user->process_beacon(w.beacons[r.router],
                                                         kBeaconAt + 1);
      if (!tally.expect(true, m2.has_value(), "beacon accepted")) return {};
      m2s.push_back(std::move(*m2));
    }

    const OpSnapshot curve_before = OpSnapshot::take();
    const std::uint64_t wal_bytes = registry_counter("persist.wal_bytes");
    const std::uint64_t wal_syncs = registry_counter("persist.wal_syncs");
    groupsig::OpCounters ops_before;
    for (const auto& r : w.routers) ops_before.merge(r->verify_ops());
    batch_per_request_ = {};

    PassResult out;
    std::size_t revoked = 0;
    const auto start = Clock::now();
    for (std::size_t first = 0; first < reads_plan_.size(); first += kBatch) {
      const std::size_t router = reads_plan_[first].router;
      const std::span<const proto::AccessRequest> batch(&m2s[first], kBatch);
      const auto t0 = Clock::now();
      const auto results = spans.call("router.access_requests", first, [&] {
        return w.routers[router]->handle_access_requests(batch,
                                                         kBeaconAt + 2);
      });
      batch_per_request_.add(ms_between(t0, Clock::now()) / kBatch);
      out.requests += kBatch;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const Read& r = reads_plan_[first + k];
        if (!tally.expect(!r.revoked, results[k].has_value(),
                          r.revoked ? "revoked M.2 rejected"
                                    : "honest M.2 admitted") ||
            r.revoked)
          continue;
        ++out.accepted;
        tally.expect(true,
                     w.members[r.member]
                         .user->process_access_confirm(results[k]->confirm)
                         .has_value(),
                     "M.3 verified");
      }
      if ((first + kBatch) % kRevokeEvery == 0 && revoked < victims_)
        out.op_ms.add(revoke(w, victim(revoked++), first, spans, tally));
    }
    out.wall_s = seconds_between(start, Clock::now());

    groupsig::OpCounters ops_after;
    for (const auto& r : w.routers) ops_after.merge(r->verify_ops());
    per_request_ops(ops_after, ops_before, curve_before, out.requests,
                    counts_);
    const double n = revoked > 0 ? static_cast<double>(revoked) : 1.0;
    wal_bytes_per_revoke_ =
        static_cast<double>(registry_counter("persist.wal_bytes") - wal_bytes) /
        n;
    wal_syncs_per_revoke_ =
        static_cast<double>(registry_counter("persist.wal_syncs") - wal_syncs) /
        n;
    return out;
  }

  void layers(const PassResult&, const SpanLog& spans, Tally&,
              Layers& out) override {
    out.set("router.batch_per_request_ms", batch_per_request_.median());
    out.set("router.rl_announce_ms", spans.median_ms("router.rl_announce"));
    out.set("persist.revoke_ms", spans.median_ms("persist.revoke"));
    out.set("persist.wal_bytes_per_revoke", wal_bytes_per_revoke_);
    out.set("persist.wal_syncs_per_revoke", wal_syncs_per_revoke_);
    double scanned = 0;
    for (const Read& r : reads_plan_) scanned += static_cast<double>(r.scan);
    out.set("scan.tokens_per_check",
            scanned / static_cast<double>(reads_plan_.size()));
    counts_.add_to(out);
  }

  UnitInputs unit_inputs() override {
    const World& w = *worlds_.front();
    return unit_inputs_from(w.cp->no().gpk(), w.members,
                            w.cp->no().current_url(), kBatch, kBatch,
                            seed_label(opt_, "unit"));
  }

  const char* op_name() const override { return "revoke"; }

 private:
  /// Member index of the i-th user revoked during the run.
  static std::size_t victim(std::size_t i) {
    return kHonest + kInitialUrl + i;
  }

  /// The fixed read schedule: which user reads at which router, and the
  /// verdict and scan length each read must produce. Revocations happen
  /// every kRevokeEvery requests, so the schedule is a function of the
  /// request count alone. The seed varies who reads and where in each group
  /// of kRevokedShare the revoked read sits, never how much work a run does:
  /// exactly one read in kRevokedShare is revoked, and its hit positions
  /// walk the URL in a golden-ratio sequence, so their mean is half the URL
  /// for every seed.
  void plan() {
    crypto::Drbg rng = crypto::Drbg::from_string(seed_label(opt_, "plan"));
    const double offset =
        static_cast<double>(rng.next_u64() % 1000) / 1000.0;
    std::size_t revoked = 0;  // victims revoked before the current read
    std::size_t slot = 0;     // position of the revoked read in its group
    for (std::size_t j = 0; j < reads_; ++j) {
      if (j > 0 && j % kRevokeEvery == 0 && revoked < victims_) ++revoked;
      if (j % kRevokedShare == 0) slot = rng.next_u64() % kRevokedShare;
      Read r;
      r.router = (j / kBatch) % kRouters;
      const std::size_t url = kInitialUrl + revoked;
      if (j % kRevokedShare == slot) {
        const double k = static_cast<double>(j / kRevokedShare);
        const double frac = std::fmod(offset + k * 0.6180339887498949, 1.0);
        const auto pos =
            static_cast<std::size_t>(frac * static_cast<double>(url));
        r.member = pos < kInitialUrl ? kHonest + pos
                                     : victim(pos - kInitialUrl);
        r.revoked = true;
        r.scan = pos + 1;
      } else {
        r.member = rng.next_u64() % kHonest;
        r.scan = url;
      }
      reads_plan_.push_back(r);
    }
  }

  /// Revokes one user and delivers the delta to every router; returns the
  /// accountability latency in ms.
  double revoke(World& w, std::size_t member, std::size_t request,
                SpanLog& spans, Tally& tally) {
    const std::uint64_t crl = w.cp->no().current_crl().version;
    const std::uint64_t url = w.cp->no().current_url().version;
    const Timestamp now = kBeaconAt + 2;
    const auto t0 = Clock::now();
    const bool written = spans.call("persist.revoke", request, [&] {
      return w.cp->revoke_user_key(w.members[member].index, now);
    });
    const auto announce = w.cp->no().make_delta_announcement(crl, url);
    bool applied = written;
    for (auto& router : w.routers) {
      const auto resync = spans.call("router.rl_announce", request, [&] {
        return router->handle_rl_announce(announce);
      });
      applied = applied && resync.empty();
    }
    const double ms = ms_between(t0, Clock::now());
    for (const auto& router : w.routers)
      applied = applied && router->revocation()->url_version() ==
                               w.cp->no().current_url().version;
    tally.expect(true, applied, "revocation applied at every router");
    return ms;
  }

  RunOptions opt_;
  std::size_t reads_;
  std::size_t victims_;
  std::vector<Read> reads_plan_;
  std::vector<std::unique_ptr<World>> worlds_;
  Samples batch_per_request_;
  double wal_bytes_per_revoke_ = 0;
  double wal_syncs_per_revoke_ = 0;
  OpCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_revocation_churn(const RunOptions& opt) {
  return std::make_unique<Churn>(opt);
}

}  // namespace perfbench
