#include "peace/session.hpp"

#include "common/serde.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"

namespace peace::proto {

namespace {

Bytes dh_ikm(const G1& shared_dh) { return curve::g1_to_bytes(shared_dh); }

Bytes derive(const G1& shared_dh, BytesView session_id, std::string_view label,
             std::size_t len) {
  return crypto::hkdf(session_id, dh_ikm(shared_dh), as_bytes(label), len);
}

Bytes seq_nonce(std::uint64_t seq) {
  Bytes nonce(crypto::kAeadNonceSize, 0);
  for (int i = 0; i < 8; ++i)
    nonce[4 + i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  return nonce;
}

}  // namespace

Session Session::establish(const G1& shared_dh, BytesView session_id,
                           Role role) {
  Session s;
  s.id_.assign(session_id.begin(), session_id.end());
  const Bytes ki = derive(shared_dh, session_id, "peace/session/initiator", 32);
  const Bytes kr = derive(shared_dh, session_id, "peace/session/responder", 32);
  s.mac_key_ = derive(shared_dh, session_id, "peace/session/mac", 32);
  if (role == Role::kInitiator) {
    s.send_key_ = ki;
    s.recv_key_ = kr;
  } else {
    s.send_key_ = kr;
    s.recv_key_ = ki;
  }
  return s;
}

std::optional<DataFrame> Session::try_seal(BytesView payload) {
  // The AEAD nonce is a function of the sequence number alone; wrapping the
  // counter would repeat a nonce under the same key, which breaks the AEAD
  // catastrophically. Refuse rather than wrap.
  if (send_seq_ == kSeqExhausted) return std::nullopt;
  DataFrame frame;
  frame.session_id = id_;
  frame.seq = send_seq_++;
  // Bind session id and sequence number as AAD so a frame cannot be
  // replayed into another session or position.
  Writer aad;
  aad.bytes(id_);
  aad.u64(frame.seq);
  frame.ciphertext =
      crypto::aead_seal(send_key_, seq_nonce(frame.seq), aad.data(), payload);
  return frame;
}

DataFrame Session::seal(BytesView payload) {
  auto frame = try_seal(payload);
  if (!frame.has_value())
    throw Error("session: send sequence space exhausted");
  return *std::move(frame);
}

std::optional<Bytes> Session::open(const DataFrame& frame) {
  if (frame.session_id != id_) return std::nullopt;
  if (frame.seq < next_recv_seq_) return std::nullopt;  // replay/reorder
  Writer aad;
  aad.bytes(id_);
  aad.u64(frame.seq);
  auto plain = crypto::aead_open(recv_key_, seq_nonce(frame.seq), aad.data(),
                                frame.ciphertext);
  if (plain.has_value()) next_recv_seq_ = frame.seq + 1;
  return plain;
}

Bytes Session::mac(BytesView data) const {
  return crypto::hmac_sha256(mac_key_, data);
}

bool Session::check_mac(BytesView data, BytesView tag) const {
  return ct_equal(mac(data), tag);
}

Bytes confirm_seal(const G1& shared_dh, BytesView session_id,
                   BytesView payload) {
  const Bytes key = derive(shared_dh, session_id, "peace/confirm", 32);
  return crypto::aead_seal(key, Bytes(crypto::kAeadNonceSize, 0), session_id,
                           payload);
}

std::optional<Bytes> confirm_open(const G1& shared_dh, BytesView session_id,
                                  BytesView ciphertext) {
  const Bytes key = derive(shared_dh, session_id, "peace/confirm", 32);
  return crypto::aead_open(key, Bytes(crypto::kAeadNonceSize, 0), session_id,
                           ciphertext);
}

}  // namespace peace::proto
