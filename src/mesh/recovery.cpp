#include "mesh/recovery.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "peace/persist/control.hpp"
#include "peace/revoke/shared.hpp"
#include "peace/user.hpp"

namespace peace::mesh {

namespace {

using persist::ControlPlane;
using persist::ControlPlaneOptions;
using proto::KeyIndex;
using revoke::SharedRevocationState;

/// One run of the scenario. `crash_every` = 0 is the uninterrupted
/// reference; otherwise the operator is destroyed and recovered from disk
/// every time that many records have accumulated since the last crash.
class DrillRun {
 public:
  DrillRun(const RecoveryDrillConfig& cfg, const std::string& dir,
           std::size_t crash_every, RecoveryDrillReport& rep)
      : cfg_(cfg), dir_(dir), crash_every_(crash_every), rep_(rep) {
    opts_.snapshot_every = cfg.snapshot_every;
    cp_.emplace(ControlPlane::create(
        dir_, crypto::Drbg::from_string("drill-" + std::to_string(cfg.seed)),
        opts_));
    next_crash_ = crash_every_;
  }

  Bytes run() {
    setup();
    enroll_wave();
    revocation_wave();
    // Mid-wave rotation: a second era (reissue + re-enroll) and wave.
    rotate();
    enroll_wave();
    revocation_wave();
    announce();
    check_convergence();
    return cp_->state_bytes();
  }

 private:
  // The crash: everything in memory dies; the site comes back from its
  // log. Valid at any record boundary because every append is fsynced
  // before the control plane returns (write-ahead discipline).
  void maybe_crash() {
    if (crash_every_ == 0) return;
    if (cp_->last_seq() < next_crash_) return;
    next_crash_ = cp_->last_seq() + crash_every_;
    cp_.reset();
    cp_.emplace(ControlPlane::recover(dir_, opts_));
    ++rep_.crashes;
    obs::Registry::global().counter("drill.operator_crashes").add(1);
    // Routers notice the operator blink and catch up off the recovered
    // delta chain — the moment a rollback would surface if there were one.
    announce();
  }

  void setup() {
    gids_.push_back(cp_->register_group("transit-east", cfg_.members + 2));
    maybe_crash();
    gids_.push_back(cp_->register_group("transit-west", cfg_.members + 2));
    maybe_crash();
    for (std::size_t i = 0; i < cfg_.router_segments; ++i) {
      cp_->provision_router(static_cast<proto::RouterId>(100 + i),
                            1000ull * 86400 * 365);
      maybe_crash();
      auto seg =
          std::make_unique<SharedRevocationState>(cp_->no().npk());
      seg->install_full(cp_->no().current_crl(), cp_->no().current_url());
      segments_.push_back(std::move(seg));
    }
  }

  void enroll_wave() {
    enrolled_.clear();
    for (std::size_t i = 0; i < cfg_.members; ++i) {
      const proto::GroupId gid = gids_[i % gids_.size()];
      const std::string uid =
          "user-" + std::to_string(era_) + "-" + std::to_string(i);
      proto::User user(uid, cp_->no().params(),
                       crypto::Drbg::from_string("drill-user-" + uid));
      const auto enrollment = cp_->enroll(gid, uid);
      maybe_crash();
      const auto receipt = user.complete_enrollment(enrollment);
      cp_->record_receipt(enrollment, user.receipt_public_key(), receipt);
      maybe_crash();
      enrolled_.push_back(enrollment.index);
    }
  }

  void revocation_wave() {
    const std::size_t n = std::min(cfg_.revocations, enrolled_.size());
    for (std::size_t i = 0; i < n; ++i) {
      cp_->revoke_user_key(enrolled_[i], now_ += 10);
      maybe_crash();
      announce();
    }
    // One router falls to the wave too, exercising the CRL chain.
    cp_->revoke_router(static_cast<proto::RouterId>(100 + era_), now_ += 10);
    maybe_crash();
    announce();
  }

  void rotate() {
    cp_->rotate_master_key(now_ += 10);
    maybe_crash();
    announce();
    ++era_;
    for (const proto::GroupId gid : gids_) {
      cp_->reissue_group(gid, cfg_.members + 2);
      maybe_crash();
    }
  }

  void announce() {
    for (auto& seg : segments_) {
      // Anti-rollback, operator side: a recovered NO must never be behind
      // a consumer of its own chain.
      if (cp_->no().current_url().version < seg->url_version() ||
          cp_->no().current_crl().version < seg->crl_version())
        ++rep_.rollback_violations;
      const auto ann = cp_->no().make_delta_announcement(seg->crl_version(),
                                                         seg->url_version());
      for (const proto::RLDelta& d : ann.deltas) {
        const revoke::DeltaResult r = seg->apply_delta(d);
        if (r == revoke::DeltaResult::kApplied) {
          ++rep_.deltas_applied;
        } else if (revoke::needs_resync(r)) {
          ++rep_.resyncs;
          const auto resp = cp_->no().handle_resync(
              {d.kind, d.kind == proto::ListKind::kCrl ? seg->crl_version()
                                                       : seg->url_version()});
          seg->install_one(d.kind, resp.full);
        } else {
          // kStale (and anything else): announcements only carry versions
          // past the segment's — a stale delta means forked history.
          ++rep_.rollback_violations;
        }
      }
    }
  }

  void check_convergence() {
    const std::uint64_t url_v = cp_->no().current_url().version;
    const std::uint64_t crl_v = cp_->no().current_crl().version;
    rep_.converged = true;
    for (const auto& seg : segments_) {
      if (seg->url_version() != url_v || seg->crl_version() != crl_v)
        rep_.converged = false;
    }
    rep_.final_url_version = url_v;
    rep_.records = cp_->last_seq();
  }

  const RecoveryDrillConfig& cfg_;
  std::string dir_;
  std::size_t crash_every_;
  RecoveryDrillReport& rep_;
  ControlPlaneOptions opts_;
  std::optional<ControlPlane> cp_;
  std::vector<std::unique_ptr<SharedRevocationState>> segments_;
  std::vector<proto::GroupId> gids_;
  std::vector<KeyIndex> enrolled_;
  std::size_t era_ = 0;
  std::uint64_t next_crash_ = 0;
  proto::Timestamp now_ = 1000;
};

}  // namespace

RecoveryDrillReport run_recovery_drill(const RecoveryDrillConfig& config) {
  obs::Span span("drill.recovery", "mesh");
  RecoveryDrillReport rep;
  std::filesystem::remove_all(config.dir);

  // Reference: same scenario, same seed, never crashes.
  RecoveryDrillReport ref_rep;
  DrillRun ref(config, config.dir + "/ref", 0, ref_rep);
  const Bytes ref_state = ref.run();

  // Live: crash at the configured cadence.
  DrillRun live(config, config.dir + "/live", config.crash_every, rep);
  const Bytes live_state = live.run();

  rep.state_matches_reference = live_state == ref_state;
  span.arg("records", rep.records);
  span.arg("crashes", rep.crashes);
  span.arg("rollback_violations", rep.rollback_violations);
  span.arg("state_match", rep.state_matches_reference ? 1 : 0);
  return rep;
}

}  // namespace peace::mesh
