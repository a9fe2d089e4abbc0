// Wire formats for every PEACE protocol message (paper Sec. IV):
//   M.1  router beacon              (g, g^rR, ts1, Sig_RSK, Cert, CRL, URL)
//   M.2  user access request        (g^rj, g^rR, ts2, group signature)
//   M.3  router access confirm      (g^rj, g^rR, E_K(MR, g^rj, g^rR))
//   M~.1 user hello (broadcast)     (g, g^rj, ts1, group signature)
//   M~.2 peer reply                 (g^rj, g^rl, ts2, group signature)
//   M~.3 initiator confirm          (g^rj, g^rl, E_K(g^rj, g^rl, ts1, ts2))
// plus router certificates and the signed CRL / URL revocation lists.
// Each layout is the type's `fields` list (common/serde.hpp): to_bytes,
// from_bytes and signed_payload all derive from it, so encodings are
// canonical and every decoder validates points.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serde.hpp"
#include "curve/ecdsa.hpp"
#include "groupsig/groupsig.hpp"
#include "peace/puzzle.hpp"

namespace peace::proto {

using curve::EcdsaSignature;
using curve::Fr;
using curve::G1;
using curve::G2;
using curve::nonzero;

/// Milliseconds of (simulated or wall) time.
using Timestamp = std::uint64_t;

/// Shared endpoint configuration.
struct ProtocolConfig {
  /// Maximum |now - ts| accepted on any timestamped message (ms).
  Timestamp replay_window_ms = 5000;
  /// How many recent beacon periods a router honours access requests for.
  std::size_t beacon_history = 8;
  /// Worker threads for the router's M.2 batch verification
  /// (MeshRouter::handle_access_requests); users check each peer hello
  /// inline. 0 or 1 verifies inline on the calling thread; results are
  /// bit-identical either way.
  unsigned verify_threads = 0;

  // --- reliability layer (PROTOCOL.md §10) -------------------------------
  /// TTL for pending-handshake state and resend caches; entries older than
  /// this are reaped before any insert. An abandoned handshake (lost M.2,
  /// peer gone) can therefore never strand state for longer than the TTL.
  Timestamp pending_ttl_ms = 30'000;
  /// Hard cap (at least 1) on every pending-handshake map and resend cache.
  /// When an insert would exceed it, the oldest entry is evicted first —
  /// bounding the state a handshake flood can pin regardless of the TTL.
  std::size_t pending_cap = 1024;
  /// Cap (at least 1) on the router's M.2 replay cache, oldest-first
  /// eviction. Entries that age out of the cache are still protected by
  /// the timestamp window.
  std::size_t replay_cache_cap = 1 << 16;

  // --- revocation epochs (PROTOCOL.md §3.1) ------------------------------
  /// Epoch length in ms; the privacy knob. 0 (the default) signs every M.2
  /// over per-message bases: M.2s are unlinkable and routers scan the URL.
  /// Nonzero signs each M.2 at epoch_at(ts1) of the beacon it answers, and
  /// routers roll their revocation index to epoch_at(now) at each beacon
  /// and check revocation in O(1); one member's M.2s are then linkable
  /// within an epoch. Peer handshakes stay at epoch 0 either way.
  Timestamp revocation_epoch_ms = 0;

  /// The revocation epoch of time `ts`: 0 when epochs are off, else
  /// ts / revocation_epoch_ms + 1 (epoch 0 is reserved for per-message
  /// bases).
  groupsig::Epoch epoch_at(Timestamp ts) const {
    return revocation_epoch_ms == 0 ? 0 : ts / revocation_epoch_ms + 1;
  }
};

using RouterId = std::uint32_t;
using GroupId = std::uint32_t;

/// The [i, j] index a group private key is issued under.
struct KeyIndex {
  GroupId group = 0;
  std::uint32_t member = 0;

  static void fields(auto& io, auto& s) { io(s.group, s.member); }
  bool operator==(const KeyIndex&) const = default;
};

/// Cert_k = {MR_k, RPK_k, ExpT, Sig_NSK} (paper IV.A).
struct RouterCertificate {
  RouterId router_id = 0;
  G1 public_key;
  Timestamp expires_at = 0;
  EcdsaSignature signature;  // by NO over (router_id, public_key, expires_at)

  static void fields(auto& io, auto& s) {
    io(s.router_id, nonzero(s.public_key), s.expires_at, kSignedEnd,
       s.signature);
  }
  /// The byte string NO signs.
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static RouterCertificate from_bytes(BytesView data);
};

/// A signed revocation list; `entries` are router ids (CRL) or serialized
/// revocation tokens (URL). `version` increases monotonically so stale lists
/// are detectable (the phishing-window analysis of Sec. V.A).
struct SignedRevocationList {
  std::uint64_t version = 0;
  Timestamp issued_at = 0;
  std::vector<Bytes> entries;
  EcdsaSignature signature;  // by NO

  static void fields(auto& io, auto& s) {
    io(s.version, s.issued_at, s.entries, kSignedEnd, s.signature);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static SignedRevocationList from_bytes(BytesView data);
};

/// Which of the two revocation lists a delta / resync message refers to.
enum class ListKind : std::uint8_t { kCrl = 0, kUrl = 1 };

/// One step of the NO's versioned delta revocation-list chain: transforms
/// the full list at (base_version, base_hash) into the list at `version` by
/// removing then adding entries. `base_hash` is SHA-256 over the
/// predecessor's canonical signed payload, so a receiver detects both gaps
/// (base_version mismatch) and divergent state (hash mismatch) before
/// mutating anything; `full_signature` is NO's ECDSA over the *resulting*
/// full list's payload, making the reconstruction bit-identical to (and as
/// authentic as) a full-list install.
struct RLDelta {
  ListKind kind = ListKind::kUrl;
  std::uint64_t base_version = 0;
  std::uint64_t version = 0;
  Timestamp issued_at = 0;
  Bytes base_hash;  // 32 bytes, SHA-256 of the predecessor list payload
  std::vector<Bytes> removed;
  std::vector<Bytes> added;
  EcdsaSignature full_signature;  // by NO, over the resulting full list
  EcdsaSignature signature;       // by NO, over this delta

  static void fields(auto& io, auto& s) {
    io(s.kind, s.base_version, s.version, s.issued_at, s.base_hash, s.removed,
       s.added, s.full_signature, kSignedEnd, s.signature);
  }
  /// Also rejects a base_hash that is not 32 bytes and a version that does
  /// not advance past base_version.
  static RLDelta from_bytes(BytesView data);
  Bytes signed_payload() const;
  Bytes to_bytes() const;
};

/// NO -> routers: one or more consecutive deltas (a straggler that missed
/// an announcement can catch up from a later one carrying the back-log).
struct RLDeltaAnnounce {
  std::vector<RLDelta> deltas;

  static void fields(auto& io, auto& s) { io(s.deltas); }
  Bytes to_bytes() const;
  static RLDeltaAnnounce from_bytes(BytesView data);
};

/// Router -> NO: the delta chain broke (gap or hash mismatch) — request a
/// full-list resync for `kind`; `have_version` lets NO skip a no-op.
struct RLResyncRequest {
  ListKind kind = ListKind::kUrl;
  std::uint64_t have_version = 0;

  static void fields(auto& io, auto& s) { io(s.kind, s.have_version); }
  Bytes to_bytes() const;
  static RLResyncRequest from_bytes(BytesView data);
};

/// NO -> router: the authoritative full list (already self-authenticating
/// via its NO signature + version).
struct RLResyncResponse {
  ListKind kind = ListKind::kUrl;
  SignedRevocationList full;

  static void fields(auto& io, auto& s) { io(s.kind, s.full); }
  Bytes to_bytes() const;
  static RLResyncResponse from_bytes(BytesView data);
};

/// M.1 — broadcast periodically by every mesh router.
struct BeaconMessage {
  RouterId router_id = 0;
  G1 g;        // fresh random generator for this beacon period
  G1 g_rr;     // g^rR
  Timestamp ts1 = 0;
  EcdsaSignature signature;  // by the router over (g, g_rr, ts1)
  RouterCertificate certificate;
  SignedRevocationList crl;
  SignedRevocationList url;
  /// DoS defence (Sec. V.A): present only while the router suspects attack.
  std::optional<PuzzleChallenge> puzzle;

  static void fields(auto& io, auto& s) {
    io(s.router_id, nonzero(s.g), nonzero(s.g_rr), s.ts1, kSignedEnd,
       s.signature, s.certificate, s.crl, s.url, s.puzzle);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static BeaconMessage from_bytes(BytesView data);
};

/// M.2 — the user's anonymous access request. The group signature covers
/// (g^rj, g^rR, ts2); uid is never transmitted.
struct AccessRequest {
  G1 g_rj;
  G1 g_rr;
  Timestamp ts2 = 0;
  groupsig::Signature signature;
  std::optional<PuzzleSolution> puzzle_solution;

  static void fields(auto& io, auto& s) {
    io(nonzero(s.g_rj), nonzero(s.g_rr), s.ts2, kSignedEnd, s.signature,
       s.puzzle_solution);
  }
  /// The message the group signature is computed over.
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static AccessRequest from_bytes(BytesView data);
};

/// M.3 — the router's confirmation, proving knowledge of K = g^(rR rj).
struct AccessConfirm {
  G1 g_rj;
  G1 g_rr;
  Bytes ciphertext;  // E_K(router_id, g^rj, g^rR)

  static void fields(auto& io, auto& s) {
    io(nonzero(s.g_rj), nonzero(s.g_rr), s.ciphertext);
  }
  Bytes to_bytes() const;
  static AccessConfirm from_bytes(BytesView data);
};

/// M~.1 — user j's local broadcast soliciting peer relaying.
struct PeerHello {
  G1 g;      // taken from the serving router's beacon
  G1 g_rj;
  Timestamp ts1 = 0;
  groupsig::Signature signature;

  static void fields(auto& io, auto& s) {
    io(nonzero(s.g), nonzero(s.g_rj), s.ts1, kSignedEnd, s.signature);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static PeerHello from_bytes(BytesView data);
};

/// M~.2 — peer l's authenticated reply.
struct PeerReply {
  G1 g_rj;
  G1 g_rl;
  Timestamp ts2 = 0;
  groupsig::Signature signature;

  static void fields(auto& io, auto& s) {
    io(nonzero(s.g_rj), nonzero(s.g_rl), s.ts2, kSignedEnd, s.signature);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static PeerReply from_bytes(BytesView data);
};

/// M~.3 — initiator's key confirmation.
struct PeerConfirm {
  G1 g_rj;
  G1 g_rl;
  Bytes ciphertext;  // E_K(g^rj, g^rl, ts1, ts2)

  static void fields(auto& io, auto& s) {
    io(nonzero(s.g_rj), nonzero(s.g_rl), s.ciphertext);
  }
  Bytes to_bytes() const;
  static PeerConfirm from_bytes(BytesView data);
};

/// Per-session data traffic: MAC-authenticated AEAD frames (the hybrid
/// design of Sec. V.C — group signatures only at session setup).
struct DataFrame {
  Bytes session_id;      // (g^rR || g^rj) or (g^rj || g^rl)
  std::uint64_t seq = 0;  // strictly increasing; receivers reject replays
  Bytes ciphertext;       // AEAD(payload), bound to session_id and seq

  static void fields(auto& io, auto& s) {
    io(s.session_id, s.seq, s.ciphertext);
  }
  Bytes to_bytes() const;
  static DataFrame from_bytes(BytesView data);
};

/// A router's entry on the CRL: its id as a big-endian u32.
Bytes crl_entry(RouterId router_id);

/// The plaintext M.3 seals: (router_id, g^rj, g^rR).
Bytes access_confirm_plaintext(RouterId router_id, const G1& g_rj,
                               const G1& g_rr);

/// The plaintext M~.3 seals: (g^rj, g^rl, ts1, ts2).
Bytes peer_confirm_plaintext(const G1& g_rj, const G1& g_rl, Timestamp ts1,
                             Timestamp ts2);

/// Session identifier helpers — sessions are identified only by pairs of
/// fresh random group elements (a privacy property the tests check).
Bytes session_id_from(const G1& a, const G1& b);

/// Key of the resend caches (PROTOCOL.md §10.1): the hex SHA-256 of a
/// frame's full wire bytes, so only a *byte-identical* duplicate matches and
/// a forged variant sharing public fields can never fish an answer out.
std::string wire_key(BytesView wire);

}  // namespace peace::proto
