// Session keying and the hybrid data path (paper Sec. V.C): the expensive
// group-signature handshake runs once per session; every subsequent frame is
// protected by symmetric AEAD/MAC keys derived from the Diffie-Hellman
// share K = g^(rR rj) via HKDF. Sessions are identified only by the pair of
// fresh random DH shares, never by anything user-linkable.
#pragma once

#include <cstdint>
#include <optional>

#include "peace/messages.hpp"

namespace peace::proto {

class Session {
 public:
  enum class Role { kInitiator, kResponder };

  /// Derives directional ChaCha20-Poly1305 keys and the MAC key from the DH
  /// shared point and the public session id.
  static Session establish(const G1& shared_dh, BytesView session_id,
                           Role role);

  const Bytes& id() const { return id_; }
  std::uint64_t frames_sent() const { return send_seq_; }

  /// The sentinel send_seq_ value at which the sequence space is spent.
  /// Sealing at this point would wrap the counter and reuse an AEAD nonce
  /// under the same key, so seal() refuses instead.
  static constexpr std::uint64_t kSeqExhausted = ~0ull;

  /// Skips n send sequence numbers without sealing (a sequence number is
  /// never reused, so skipping forward is always safe). Saturates at
  /// kSeqExhausted rather than wrapping.
  void advance_send_seq(std::uint64_t n) {
    send_seq_ = n > kSeqExhausted - send_seq_ ? kSeqExhausted : send_seq_ + n;
  }

  /// True once the send counter has reached the sentinel: the next seal
  /// would reuse an AEAD nonce, so the session must be rekeyed (a fresh DH
  /// handshake) before it can send again.
  bool seq_exhausted() const { return send_seq_ == kSeqExhausted; }

  /// Encrypts and authenticates one payload; the sequence number is bound
  /// into the AEAD so frames cannot be reordered or replayed. Returns
  /// nullopt — refusing gracefully — once the 2^64 - 1 sequence space is
  /// exhausted; callers should treat that as a rekey trigger, not an error.
  std::optional<DataFrame> try_seal(BytesView payload);

  /// Throwing form of try_seal for callers that treat exhaustion as a
  /// programming error (tests, one-shot tools). The data path must use
  /// try_seal instead.
  DataFrame seal(BytesView payload);

  /// Verifies, decrypts, and enforces strictly increasing sequence numbers.
  /// Returns nullopt on any failure (wrong session, replay, tamper).
  std::optional<Bytes> open(const DataFrame& frame);

  /// Lightweight integrity-only path (HMAC-SHA256) for traffic that needs
  /// authentication but not confidentiality.
  Bytes mac(BytesView data) const;
  bool check_mac(BytesView data, BytesView tag) const;

 private:
  Bytes id_;
  Bytes send_key_;  // 32 bytes
  Bytes recv_key_;
  Bytes mac_key_;   // 32 bytes
  std::uint64_t send_seq_ = 0;
  std::uint64_t next_recv_seq_ = 0;
};

/// One-shot authenticated encryption for the key-confirmation ciphertexts
/// in (M.3) and (M~.3); uses a key derived from the same DH share under a
/// separate HKDF label so confirmation traffic can never collide with data
/// frames.
Bytes confirm_seal(const G1& shared_dh, BytesView session_id,
                   BytesView payload);
std::optional<Bytes> confirm_open(const G1& shared_dh, BytesView session_id,
                                  BytesView ciphertext);

}  // namespace peace::proto
