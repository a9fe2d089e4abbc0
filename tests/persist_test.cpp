// Crash-recovery suite for the durable operator control plane
// (docs/ARCHITECTURE.md §8): WAL framing and hash-chain integrity, hostile
// damaged logs (torn tails, bit rot, forked history, duplicated splices),
// the differential byte-identical-recovery property at every record
// boundary, and the headline crash-during-revocation-wave drill with
// resyncing routers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mesh/recovery.hpp"
#include "peace/persist/chaos.hpp"
#include "peace/persist/control.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::persist {
namespace {

namespace fs = std::filesystem;

constexpr proto::Timestamp kDay = 86400;
constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/peace-persist-" + name;
  fs::remove_all(dir);
  return dir;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::string newest_segment(const std::string& dir) {
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.ends_with(".wal") &&
        (best.empty() || name > best))
      best = name;
  }
  return dir + "/" + best;
}

void push_be32(Bytes& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back((v >> (8 * i)) & 0xff);
}

void push_be64(Bytes& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back((v >> (8 * i)) & 0xff);
}

// Appends a frame that passes magic, CRC, and sequence validation but whose
// chain value extends a *different* history — a forked rewrite. Only the
// hash chain can catch this.
void append_forked_record(const std::string& dir) {
  const std::string path = newest_segment(dir);
  const auto scan = WalSegment::scan_file(path);
  const std::uint64_t seq = scan.last_seq + 1;
  const std::uint8_t type = 4;
  const Bytes payload = to_bytes("forked-history");
  const Bytes fake_chain = chain_next(genesis_chain(), seq, type, payload);

  Bytes frame;
  push_be32(frame, WalSegment::kRecordMagic);
  push_be64(frame, seq);
  frame.push_back(type);
  push_be32(frame, static_cast<std::uint32_t>(payload.size()));
  append(frame, payload);
  append(frame, fake_chain);
  push_be32(frame, crc32(frame));

  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
}

void corrupt_all_snapshots(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".snap") continue;
    Bytes data = read_file(entry.path().string());
    ASSERT_GT(data.size(), 21u);
    data[20] ^= 0x5a;  // inside the bound chain value -> CRC mismatch
    write_file(entry.path().string(), data);
  }
}

// --- deterministic control-plane scenario --------------------------------
//
// A scripted rolling-revocation scenario where every op appends exactly one
// WAL record, so op boundaries enumerate record boundaries. Ops carry their
// cross-op state (pending enrollments, issued indexes) in a ScenarioCtx
// that stays valid across a crash at any op boundary.

struct ScenarioCtx {
  std::vector<proto::GroupId> gids;
  std::map<std::string, proto::GroupManager::Enrollment> pending;
  std::vector<proto::KeyIndex> issued;
};

using Op = std::function<void(ControlPlane&, ScenarioCtx&)>;

void push_enroll_ops(std::vector<Op>& ops, std::size_t group, std::size_t era,
                     std::size_t member) {
  const std::string uid = "user-" + std::to_string(era) + "-" +
                          std::to_string(group) + "-" + std::to_string(member);
  ops.push_back([uid, group](ControlPlane& cp, ScenarioCtx& ctx) {
    ctx.pending[uid] = cp.enroll(ctx.gids[group], uid);
    ctx.issued.push_back(ctx.pending[uid].index);
  });
  ops.push_back([uid](ControlPlane& cp, ScenarioCtx& ctx) {
    proto::User user(uid, cp.no().params(),
                     crypto::Drbg::from_string("seed-" + uid));
    const auto& enr = ctx.pending.at(uid);
    const auto sig = user.complete_enrollment(enr);
    cp.record_receipt(enr, user.receipt_public_key(), sig);
  });
}

std::vector<Op> build_scenario(std::size_t members_per_group) {
  std::vector<Op> ops;
  ops.push_back([](ControlPlane& cp, ScenarioCtx& ctx) {
    ctx.gids.push_back(cp.register_group("transit-east", 8));
  });
  ops.push_back([](ControlPlane& cp, ScenarioCtx& ctx) {
    ctx.gids.push_back(cp.register_group("transit-west", 6));
  });
  for (std::size_t m = 0; m < members_per_group; ++m)
    for (std::size_t g = 0; g < 2; ++g) push_enroll_ops(ops, g, 1, m);
  ops.push_back([](ControlPlane& cp, ScenarioCtx&) {
    cp.provision_router(401, kFarFuture);
  });
  ops.push_back([](ControlPlane& cp, ScenarioCtx&) {
    cp.provision_router(402, kFarFuture);
  });
  // Rolling revocation wave over the first few issued keys, a router in the
  // middle, then a master-key rotation and a second, smaller era.
  const std::size_t wave = std::min<std::size_t>(3, 2 * members_per_group);
  for (std::size_t k = 0; k < wave; ++k)
    ops.push_back([k](ControlPlane& cp, ScenarioCtx& ctx) {
      EXPECT_TRUE(cp.revoke_user_key(ctx.issued[k], kDay * (k + 1)));
    });
  ops.push_back([](ControlPlane& cp, ScenarioCtx&) {
    EXPECT_TRUE(cp.revoke_router(402, 5 * kDay));
  });
  ops.push_back([](ControlPlane& cp, ScenarioCtx&) {
    cp.rotate_master_key(6 * kDay);
  });
  ops.push_back([](ControlPlane& cp, ScenarioCtx& ctx) {
    cp.reissue_group(ctx.gids[0], 4);
  });
  ops.push_back([](ControlPlane& cp, ScenarioCtx& ctx) {
    cp.reissue_group(ctx.gids[1], 4);
  });
  for (std::size_t g = 0; g < 2; ++g) push_enroll_ops(ops, g, 2, 0);
  ops.push_back([](ControlPlane& cp, ScenarioCtx& ctx) {
    EXPECT_TRUE(cp.revoke_user_key(ctx.issued.back(), 7 * kDay));
  });
  return ops;
}

class PersistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

// --- WAL framing ---------------------------------------------------------

TEST_F(PersistTest, Crc32MatchesReferenceVector) {
  // The canonical CRC-32 check value; zlib.crc32 agrees, which is what
  // tools/log_inspect.py relies on.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

TEST_F(PersistTest, ChainAdvancesOverEveryFramedField) {
  const Bytes g = genesis_chain();
  ASSERT_EQ(g.size(), 32u);
  const Bytes p = to_bytes("payload");
  const Bytes c = chain_next(g, 1, 7, p);
  EXPECT_NE(c, chain_next(g, 2, 7, p));           // seq bound
  EXPECT_NE(c, chain_next(g, 1, 8, p));           // type bound
  EXPECT_NE(c, chain_next(g, 1, 7, Bytes{}));     // payload bound
  EXPECT_NE(c, chain_next(c, 1, 7, p));           // predecessor bound
  EXPECT_EQ(c, chain_next(g, 1, 7, p));           // deterministic
}

TEST_F(PersistTest, SegmentAppendScanReopenRoundTrip) {
  const std::string dir = fresh_dir("segment");
  fs::create_directories(dir);
  const std::string path = dir + "/seg.wal";
  {
    auto seg = WalSegment::create(path, 0, genesis_chain());
    EXPECT_EQ(seg.append(7, to_bytes("alpha")), 1u);
    EXPECT_EQ(seg.append(8, to_bytes("beta")), 2u);
    seg.sync();
  }
  const auto scan = WalSegment::scan_file(path);
  EXPECT_EQ(scan.records, 2u);
  EXPECT_EQ(scan.last_seq, 2u);
  EXPECT_EQ(scan.damage, WalDamage::kNone);
  EXPECT_EQ(scan.dropped_bytes, 0u);

  WalScanResult reopened;
  std::vector<WalRecord> seen;
  auto seg = WalSegment::open(
      path, reopened,
      [&](const WalRecord& rec, std::uint64_t) { seen.push_back(rec); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].payload, to_bytes("alpha"));
  EXPECT_EQ(seen[1].type, 8u);
  EXPECT_EQ(seg.append(7, to_bytes("gamma")), 3u);
  EXPECT_EQ(WalSegment::scan_file(path).records, 3u);
}

TEST_F(PersistTest, ChainCatchesCrcFixedRewrite) {
  // Rewrite a middle record's payload AND fix up its CRC: framing validates
  // but the hash chain does not — the scan must stop there with kBadChain.
  const std::string dir = fresh_dir("rewrite");
  fs::create_directories(dir);
  const std::string path = dir + "/seg.wal";
  {
    auto seg = WalSegment::create(path, 0, genesis_chain());
    seg.append(1, to_bytes("one"));
    seg.append(1, to_bytes("two"));
    seg.append(1, to_bytes("three"));
    seg.sync();
  }
  std::vector<std::uint64_t> offsets;
  std::vector<std::size_t> lens;
  WalSegment::scan_file(path, [&](const WalRecord& rec, std::uint64_t off) {
    offsets.push_back(off);
    lens.push_back(rec.payload.size());
  });
  Bytes data = read_file(path);
  const std::size_t frame = offsets[1];
  const std::size_t total = 17 + lens[1] + 32 + 4;
  data[frame + 17] ^= 0xff;  // first payload byte
  Bytes fixed_crc;
  push_be32(fixed_crc, crc32(BytesView(data).subspan(frame, total - 4)));
  std::copy(fixed_crc.begin(), fixed_crc.end(),
            data.begin() + static_cast<std::ptrdiff_t>(frame + total - 4));
  write_file(path, data);

  const auto scan = WalSegment::scan_file(path);
  EXPECT_EQ(scan.damage, WalDamage::kBadChain);
  EXPECT_EQ(scan.records, 1u);
  EXPECT_EQ(scan.last_seq, 1u);
}

TEST_F(PersistTest, StoreSnapshotRotatesSegmentsAndRecovers) {
  const std::string dir = fresh_dir("store");
  const Bytes snap = to_bytes("state-after-three");
  {
    auto store = DurableStore::create(dir);
    for (int i = 0; i < 3; ++i) store.append(1, to_bytes("r" + std::to_string(i)));
    store.write_snapshot(snap);
    store.append(2, to_bytes("tail-0"));
    store.append(2, to_bytes("tail-1"));
  }
  auto rec = DurableStore::open(dir);
  EXPECT_EQ(rec.report.snapshot_seq, 3u);
  EXPECT_EQ(rec.snapshot, snap);
  ASSERT_EQ(rec.tail.size(), 2u);
  EXPECT_EQ(rec.tail[0].seq, 4u);
  EXPECT_EQ(rec.tail[1].payload, to_bytes("tail-1"));
  EXPECT_EQ(rec.report.records_scanned, 5u);
  EXPECT_EQ(rec.report.segments, 2u);
  EXPECT_EQ(rec.report.damage, "");
}

TEST_F(PersistTest, SnapshotWithoutRotatedSegmentStillAnchorsAfterReopen) {
  // Crash between writing a snapshot and creating its rotated segment: open
  // must finish the rotation, or the next record lands in the old segment
  // and the snapshot no longer anchors on the following open.
  const std::string dir = fresh_dir("unrotated");
  const Bytes snap = to_bytes("state-after-three");
  {
    auto store = DurableStore::create(dir);
    for (int i = 0; i < 3; ++i) store.append(1, to_bytes("r" + std::to_string(i)));
    store.write_snapshot(snap);
  }
  ASSERT_TRUE(fs::remove(dir + "/wal-00000000000000000003.wal"));
  {
    auto rec = DurableStore::open(dir);
    EXPECT_EQ(rec.report.snapshot_seq, 3u);
    EXPECT_TRUE(rec.tail.empty());
    rec.store.append(2, to_bytes("tail-0"));
  }
  auto rec = DurableStore::open(dir);
  EXPECT_EQ(rec.report.snapshot_seq, 3u);
  EXPECT_EQ(rec.snapshot, snap);
  ASSERT_EQ(rec.tail.size(), 1u);
  EXPECT_EQ(rec.tail[0].seq, 4u);
  EXPECT_EQ(rec.tail[0].payload, to_bytes("tail-0"));
  EXPECT_EQ(rec.report.snapshots_discarded, 0u);
  EXPECT_EQ(rec.report.damage, "");
}

// --- differential crash recovery -----------------------------------------

TEST_F(PersistTest, DifferentialRecoveryAtEveryRecordBoundary) {
  // Reference run, capturing the canonical state image after *every* WAL
  // record. Then for each record boundary, materialize the crash with
  // crash_copy and check recover() restores byte-identical state. Testing
  // every boundary subsumes the "100 random crash points" requirement for
  // this scenario length.
  const std::string ref_dir = fresh_dir("diff-ref");
  ControlPlaneOptions opts;
  opts.snapshot_every = 5;
  opts.store.keep_snapshots = 1000;  // crash points need historical snapshots
  auto ops = build_scenario(3);

  std::optional<ControlPlane> cp(
      ControlPlane::create(ref_dir, crypto::Drbg::from_string("diff-op"), opts));
  ScenarioCtx ctx;
  std::map<std::uint64_t, Bytes> states;
  states[cp->last_seq()] = cp->state_bytes();
  for (auto& op : ops) {
    const std::uint64_t before = cp->last_seq();
    op(*cp, ctx);
    ASSERT_EQ(cp->last_seq(), before + 1) << "scenario op must be one record";
    states[cp->last_seq()] = cp->state_bytes();
  }
  const std::uint64_t last = cp->last_seq();
  cp.reset();
  ASSERT_GE(last, 25u);

  for (std::uint64_t seq = 0; seq <= last; ++seq) {
    const std::string dst = fresh_dir("diff-crash");
    crash_copy(ref_dir, dst, seq);
    ControlPlane recovered = ControlPlane::recover(dst, opts);
    EXPECT_EQ(recovered.last_seq(), seq);
    ASSERT_EQ(recovered.state_bytes(), states.at(seq))
        << "recovery diverged after crash at record " << seq;
  }
}

TEST_F(PersistTest, RecoveredOperatorContinuesByteIdentical) {
  // Recovery restores the DRBG too, so a recovered operator that finishes
  // the scenario must land on exactly the reference final state — future
  // randomness included.
  auto ops = build_scenario(2);
  ControlPlaneOptions opts;
  opts.snapshot_every = 6;
  opts.store.keep_snapshots = 1000;

  Bytes ref_final;
  {
    ControlPlane cp = ControlPlane::create(
        fresh_dir("cont-ref"), crypto::Drbg::from_string("cont-op"), opts);
    ScenarioCtx ctx;
    for (auto& op : ops) op(cp, ctx);
    ref_final = cp.state_bytes();
  }

  for (const std::size_t cut : {std::size_t(3), ops.size() / 2, ops.size() - 2}) {
    const std::string live = fresh_dir("cont-live");
    const std::string crashed = fresh_dir("cont-crashed");
    ScenarioCtx ctx;
    std::optional<ControlPlane> cp(ControlPlane::create(
        live, crypto::Drbg::from_string("cont-op"), opts));
    for (std::size_t i = 0; i < cut; ++i) ops[i](*cp, ctx);
    const std::uint64_t seq = cp->last_seq();
    cp.reset();

    crash_copy(live, crashed, seq);
    cp.emplace(ControlPlane::recover(crashed, opts));
    for (std::size_t i = cut; i < ops.size(); ++i) ops[i](*cp, ctx);
    EXPECT_EQ(cp->state_bytes(), ref_final)
        << "continuation diverged after crash at op " << cut;
  }
}

// --- hostile / damaged logs ----------------------------------------------

class DamagedLogTest : public PersistTest {
 protected:
  // One segment (snapshots only on demand -> just the genesis snapshot),
  // so the damage helpers aimed at the newest segment hit real history.
  void build(const std::string& name) {
    dir_ = fresh_dir(name);
    opts_.snapshot_every = 0;
    ControlPlane cp =
        ControlPlane::create(dir_, crypto::Drbg::from_string("dmg-op"), opts_);
    ScenarioCtx ctx;
    states_[cp.last_seq()] = cp.state_bytes();
    for (auto& op : build_scenario(1)) {
      op(cp, ctx);
      states_[cp.last_seq()] = cp.state_bytes();
    }
    last_ = cp.last_seq();
  }

  std::string dir_;
  ControlPlaneOptions opts_;
  std::map<std::uint64_t, Bytes> states_;
  std::uint64_t last_ = 0;
};

TEST_F(DamagedLogTest, TornTailRecoversToLastGoodRecord) {
  build("torn");
  truncate_tail(dir_, 10);
  ControlPlane cp = ControlPlane::recover(dir_, opts_);
  EXPECT_EQ(cp.last_seq(), last_ - 1);
  EXPECT_EQ(cp.state_bytes(), states_.at(last_ - 1));
  EXPECT_EQ(cp.recovery_report().damage, "truncated");
  EXPECT_GT(cp.recovery_report().bytes_truncated, 0u);
  // The truncated log is live again: the next op reuses the dropped seq
  // (that history never escaped the site).
  cp.provision_router(999, kFarFuture);
  EXPECT_EQ(cp.last_seq(), last_);
}

TEST_F(DamagedLogTest, BitFlipRecoversToLastGoodRecord) {
  build("bitflip");
  corrupt_byte(dir_, 20, 0x10);  // inside the last frame's chain value
  ControlPlane cp = ControlPlane::recover(dir_, opts_);
  EXPECT_EQ(cp.last_seq(), last_ - 1);
  EXPECT_EQ(cp.state_bytes(), states_.at(last_ - 1));
  EXPECT_EQ(cp.recovery_report().damage, "bad_crc");
}

TEST_F(DamagedLogTest, ForkedHistoryIsRejectedByTheChain) {
  build("fork");
  append_forked_record(dir_);
  ControlPlane cp = ControlPlane::recover(dir_, opts_);
  EXPECT_EQ(cp.last_seq(), last_);
  EXPECT_EQ(cp.state_bytes(), states_.at(last_));
  EXPECT_EQ(cp.recovery_report().damage, "bad_chain");
}

TEST_F(DamagedLogTest, DuplicatedSpliceIsRejectedAsSequenceBreak) {
  build("dup");
  duplicate_last_record(dir_);
  ControlPlane cp = ControlPlane::recover(dir_, opts_);
  EXPECT_EQ(cp.last_seq(), last_);
  EXPECT_EQ(cp.state_bytes(), states_.at(last_));
  EXPECT_EQ(cp.recovery_report().damage, "bad_seq");
}

TEST_F(DamagedLogTest, AllSnapshotsDamagedFailsCleanNotPartially) {
  build("nosnap");
  corrupt_all_snapshots(dir_);
  EXPECT_THROW(ControlPlane::recover(dir_, opts_), Error);
  // Failing clean means failing the same way twice: nothing was mutated.
  EXPECT_THROW(ControlPlane::recover(dir_, opts_), Error);
}

// --- headline scenario ----------------------------------------------------

TEST_F(PersistTest, RevocationWaveSurvivesCrashAtEveryBoundary) {
  // The acceptance drill: the operator is killed after every WAL record of
  // a rolling revocation wave (with a mid-wave rotation); router segments
  // resync off the recovered delta chain after each crash. Zero rollback
  // observations and a byte-identical final state are required.
  mesh::RecoveryDrillConfig cfg;
  cfg.dir = fresh_dir("drill");
  cfg.members = 4;
  cfg.revocations = 3;
  cfg.router_segments = 2;
  cfg.snapshot_every = 6;
  cfg.crash_every = 1;
  const auto report = mesh::run_recovery_drill(cfg);
  EXPECT_GT(report.records, 0u);
  EXPECT_GT(report.crashes, report.records / 2);
  EXPECT_GT(report.deltas_applied, 0u);
  EXPECT_EQ(report.rollback_violations, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.state_matches_reference);
}

}  // namespace
}  // namespace peace::persist
