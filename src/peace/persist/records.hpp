// WAL record payloads of the operator control plane.
//
// The log stores RESULTS, not operations: every random draw an operation
// made (credentials, list signatures, the post-operation DRBG state) is in
// the record, so replay is pure bookkeeping — it never touches the DRBG and
// therefore reconstructs state byte-identical to the uninterrupted run.
// In particular a recovered operator continues the SAME delta chain, so
// resyncing routers can never observe a rollback.
//
// Each payload's layout is its `fields` list (common/serde.hpp); lists
// carry u64 element counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "peace/messages.hpp"

namespace peace::persist {

using proto::Fr;

/// The `type` byte of a WAL record frame.
enum class RecordType : std::uint8_t {
  kGroupRegistered = 1,   // GroupIssueRecord
  kGroupReissued = 2,     // GroupIssueRecord
  kMasterRotated = 3,     // MasterRotatedRecord
  kUserRevoked = 4,       // RevocationRecord
  kRouterRevoked = 5,     // RevocationRecord
  kRouterProvisioned = 6, // RouterProvisionedRecord
  kEnrolled = 7,          // EnrolledRecord
  kReceiptArchived = 8,   // ReceiptArchivedRecord
};

/// One credential minted in an issue batch: everything the three back-office
/// parties jointly learned about key [i, j].
struct IssuedKey {
  proto::KeyIndex index;
  Bytes token;    // serialized RevocationToken A (NO's grt entry)
  Bytes blinded;  // A xor KDF(x), as deposited with the TTP
  Fr x;           // member secret handed to the GM

  static void fields(auto& io, auto& s) {
    io(s.index, s.token, s.blinded, s.x);
  }
};

/// kGroupRegistered / kGroupReissued.
struct GroupIssueRecord {
  proto::GroupId gid = 0;
  std::string name;  // empty for reissue (the GM already exists)
  Fr grp;
  std::uint32_t next_member_after = 0;  // NO's member counter post-batch
  std::vector<IssuedKey> keys;
  Bytes rng_state;  // NO's DRBG after the whole compound operation

  static constexpr bool kWideCounts = true;
  static void fields(auto& io, auto& s) {
    io(s.gid, s.name, s.grp, s.next_member_after, s.keys, s.rng_state);
  }
  Bytes to_bytes() const;
  static GroupIssueRecord from_bytes(BytesView data);
};

/// kMasterRotated: the new master secret plus the remove-all URL delta the
/// rotation published (replay re-installs it bit-identically).
struct MasterRotatedRecord {
  Fr new_gamma;
  Bytes url_delta;  // serialized RLDelta
  Bytes rng_state;

  static void fields(auto& io, auto& s) {
    io(s.new_gamma, s.url_delta, s.rng_state);
  }
  Bytes to_bytes() const;
  static MasterRotatedRecord from_bytes(BytesView data);
};

/// kUserRevoked / kRouterRevoked: the signed delta IS the outcome.
struct RevocationRecord {
  Bytes delta;  // serialized RLDelta
  Bytes rng_state;

  static void fields(auto& io, auto& s) { io(s.delta, s.rng_state); }
  Bytes to_bytes() const;
  static RevocationRecord from_bytes(BytesView data);
};

/// kRouterProvisioned: archives the certificate for accountability; only
/// the DRBG state matters for operator-state recovery (the keypair lives
/// with the router).
struct RouterProvisionedRecord {
  Bytes certificate;  // serialized RouterCertificate
  Bytes rng_state;

  static void fields(auto& io, auto& s) { io(s.certificate, s.rng_state); }
  Bytes to_bytes() const;
  static RouterProvisionedRecord from_bytes(BytesView data);
};

/// kEnrolled: GM assigned key `index` to `uid` (TTP delivered the blinded
/// credential). Draws no randomness.
struct EnrolledRecord {
  proto::KeyIndex index;
  std::string uid;

  static void fields(auto& io, auto& s) { io(s.index, s.uid); }
  Bytes to_bytes() const;
  static EnrolledRecord from_bytes(BytesView data);
};

/// kReceiptArchived: the user's signed proof of receipt — the
/// non-repudiation evidence a law-authority trace leans on. Verified
/// before it was written; the log keeps it forever.
struct ReceiptArchivedRecord {
  proto::KeyIndex index;
  Bytes user_public_key;  // serialized G1
  Bytes signature;        // serialized EcdsaSignature

  static void fields(auto& io, auto& s) {
    io(s.index, s.user_public_key, s.signature);
  }
  Bytes to_bytes() const;
  static ReceiptArchivedRecord from_bytes(BytesView data);
};

}  // namespace peace::persist
