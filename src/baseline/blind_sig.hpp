// Schnorr blind signature over G1 — the other design alternative the paper
// rejects in Sec. IV: the signer (operator) issues a credential without
// seeing it, so showing it later is perfectly anonymous AND perfectly
// unaccountable — there is no opening, no linkage, and no way to revoke an
// individual credential short of rotating the issuing key. The baseline
// tests make those non-properties explicit.
#pragma once

#include <optional>

#include "curve/ecdsa.hpp"

namespace peace::baseline {

using curve::Fr;
using curve::G1;

/// An unblinded credential: a plain Schnorr signature (c, s) on `message`
/// under the issuer key, unlinkable to its issuance transcript.
struct BlindSignature {
  Fr c;
  Fr s;

  static void fields(auto& io, auto& sig) { io(sig.c, sig.s); }
  Bytes to_bytes() const;
  static BlindSignature from_bytes(BytesView data);
};

class BlindIssuer {
 public:
  static BlindIssuer create(crypto::Drbg& rng);

  const G1& public_key() const { return public_key_; }

  /// Round 1: the issuer's commitment R = g^k. The state token must be
  /// kept to finish this session.
  struct SessionState {
    Fr k;
  };
  G1 round1(SessionState& state, crypto::Drbg& rng) const;

  /// Round 2: responds to the (blinded) challenge.
  Fr round2(const SessionState& state, const Fr& blinded_challenge) const;

 private:
  Fr secret_;
  G1 public_key_;
};

/// User side, between the issuer's two rounds: blinds the commitment,
/// derives the real challenge for `message`, and unblinds the response.
class BlindRequester {
 public:
  /// Consumes R = g^k, produces the blinded challenge to send back.
  Fr challenge(const G1& issuer_pub, const G1& commitment, BytesView message,
               crypto::Drbg& rng);

  /// Consumes the issuer's response; returns the final signature.
  BlindSignature unblind(const Fr& response) const;

 private:
  Fr alpha_, beta_;
  Fr real_challenge_;
};

bool blind_verify(const G1& issuer_pub, BytesView message,
                  const BlindSignature& sig);

}  // namespace peace::baseline
