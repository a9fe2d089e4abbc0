// Adversary models from the threat model (paper Sec. III.B): a global
// eavesdropper attempting session linkage, message replayers, bogus-data
// injectors (outsiders without credentials), rogue/phishing routers,
// revoked users, and DoS flooders targeting the router's expensive
// signature verification. Each adversary produces measurable evidence used
// by the attack tests (A1-A3) and the DoS bench (E8).
#pragma once

#include <map>
#include <set>

#include "mesh/network.hpp"

namespace peace::mesh {

/// Passive global eavesdropper: records every frame on the air and runs the
/// obvious linkage analyses an adversary would try.
class Eavesdropper {
 public:
  void attach(MeshNetwork& net);

  std::size_t frames_seen() const { return frames_.size(); }
  /// Distinct access requests on the air: a retransmission repeats its M.2
  /// byte for byte, so its copies are one request.
  std::size_t access_requests_seen() const { return m2_wires_.size(); }

  /// Number of byte-identical protocol fields (DH shares, T1, T2, T_hat,
  /// nonces) appearing in more than one distinct access request. Freshness
  /// means this must be zero — any repeat is linkage evidence.
  std::size_t repeated_field_count() const;

  /// Plaintext fragments recovered from observed data frames (the
  /// eavesdropper knows the wire format but no keys). With intact crypto
  /// this stays empty; the accessor exists so tests assert exactly that.
  const std::vector<Bytes>& recovered_plaintexts() const {
    return recovered_;
  }

  /// True if `needle` occurs in any recorded frame — catches accidental
  /// identity leakage anywhere in any message.
  bool saw_bytes(BytesView needle) const;

 private:
  void on_frame(const WireObservation& obs);

  std::vector<WireObservation> frames_;
  std::map<std::string, int> field_occurrences_;
  std::set<Bytes> m2_wires_;
  std::vector<Bytes> recovered_;
};

/// Records genuine access requests off the air and replays them later.
class Replayer {
 public:
  void attach(MeshNetwork& net);
  std::size_t captured() const { return captured_.size(); }

  /// Replays every captured M.2 at the router; returns how many sessions
  /// the replays gained (the router's `accepted` delta — must be zero:
  /// replay cache + timestamp window). A byte-identical replay inside the
  /// window is answered with the original's cached M.3, kept in confirms().
  std::size_t replay_all(proto::MeshRouter& router, proto::Timestamp now);

  /// Wire bytes of every M.3 a router handed back to a replay.
  const std::vector<Bytes>& confirms() const { return confirms_; }

 private:
  std::vector<Bytes> captured_;
  std::vector<Bytes> confirms_;
};

/// Outsider without any credential: injects well-formed but unsigned /
/// garbage-signed access requests (bogus data injection, Sec. V.A).
class BogusInjector {
 public:
  explicit BogusInjector(crypto::Drbg rng) : rng_(std::move(rng)) {}

  /// Builds a syntactically valid M.2 against `beacon` with a structurally
  /// valid but cryptographically garbage group signature.
  proto::AccessRequest forge_request(const proto::BeaconMessage& beacon,
                                     proto::Timestamp now);

  /// Fires `count` forgeries at the router; returns how many it accepted
  /// (must be zero).
  std::size_t inject(proto::MeshRouter& router,
                     const proto::BeaconMessage& beacon, proto::Timestamp now,
                     std::size_t count);

 private:
  crypto::Drbg rng_;
};

/// A flooder for the DoS experiment: like BogusInjector but also able to
/// honestly solve puzzles (modeling an attacker with bounded compute). The
/// cost accounting lets E8 compare router work vs attacker work.
class DosFlooder {
 public:
  explicit DosFlooder(crypto::Drbg rng) : rng_(std::move(rng)) {}

  struct FloodReport {
    std::size_t sent = 0;
    std::size_t accepted = 0;                 // must stay 0
    std::uint64_t attacker_hash_work = 0;     // puzzle search cost paid
    std::uint64_t router_sig_verifications = 0;  // expensive work induced
  };

  /// Sends `count` bogus requests; if the beacon carries a puzzle and
  /// `solve_puzzles` is set, pays the brute-force cost per request (up to
  /// `hash_budget` total hash evaluations, modeling bounded resources).
  FloodReport flood(proto::MeshRouter& router,
                    const proto::BeaconMessage& beacon, proto::Timestamp now,
                    std::size_t count, bool solve_puzzles,
                    std::uint64_t hash_budget = ~0ull);

 private:
  crypto::Drbg rng_;
};

/// A rogue (phishing) router under adversary control: fresh keys with a
/// self-signed certificate. Sec. V.A: users must refuse its beacons.
proto::MeshRouter make_rogue_router(proto::RouterId id,
                                    const proto::SystemParams& params,
                                    crypto::Drbg rng);

}  // namespace peace::mesh
