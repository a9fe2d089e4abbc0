// Verification calls the protocol never makes, composed from the library's
// steps: full verification against the plain key (proof plus a per-token
// revocation scan, paper steps 3.2 + 3.3; the oracle of the prepared
// groupsig::verify), epoch-mode verification against the constant-time
// index, and the epoch linkability tag. MeshRouter and User run these steps
// inside the protocol; tests and bench/ use the compositions to state a
// verdict directly.
#pragma once

#include <span>

#include "groupsig/groupsig.hpp"

namespace peace::groupsig {

/// Full verification: the proof plus a linear scan of the revocation list,
/// one re-deriving matches_token per token.
inline bool verify(const GroupPublicKey& gpk, BytesView message,
                   const Signature& sig, std::span<const RevocationToken> url,
                   OpCounters* ops = nullptr) {
  if (!verify_proof(gpk, message, sig, ops)) return false;
  for (const RevocationToken& token : url) {
    if (matches_token(gpk, message, sig, token, ops)) return false;
  }
  return true;
}

/// Epoch-mode verification with the constant-time index.
inline bool verify_fast(const GroupPublicKey& gpk, BytesView message,
                        const Signature& sig,
                        const EpochRevocationIndex& index,
                        OpCounters* ops = nullptr) {
  if (sig.epoch != index.epoch()) return false;
  if (!verify_proof(gpk, message, sig, ops)) return false;
  return !index.is_revoked(sig, ops);
}

/// The tag e(A, v_hat) = e(T2, v_hat) / e(v, T_hat) any verifier can derive
/// from an epoch-mode signature: equal for one member within an epoch (the
/// paper's "a little bit sacrifice on user privacy").
inline GT epoch_linkability_tag(const GroupPublicKey& gpk,
                                const Signature& sig) {
  const curve::SignatureBases bases = epoch_bases(gpk, sig.epoch);
  return curve::pairing(sig.t2, bases.v_hat) *
         curve::pairing(bases.v, sig.t_hat).unitary_inverse();
}

}  // namespace peace::groupsig
