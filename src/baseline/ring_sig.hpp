// Abe-Ohkubo-Suzuki style Schnorr ring signature over G1 — the design
// alternative the paper rejects in Sec. IV: it gives anonymity within an
// ad-hoc ring but is structurally unopenable (no manager, no tokens, no
// Eq.3), so accountability and revocation are impossible; and the
// signature grows linearly with the ring. Implemented as a baseline so the
// comparison is executable: see tests/altsig_test.cpp.
#pragma once

#include <vector>

#include "curve/ecdsa.hpp"

namespace peace::baseline {

using curve::Fr;
using curve::G1;

struct RingKeyPair {
  Fr secret;
  G1 public_key;

  static RingKeyPair generate(crypto::Drbg& rng);
};

/// (c0, z_0..z_{n-1}): one scalar per ring member plus the seed challenge.
struct RingSignature {
  Fr c0;
  std::vector<Fr> z;

  static void fields(auto& io, auto& s) { io(s.c0, s.z); }
  Bytes to_bytes() const;
  static RingSignature from_bytes(BytesView data);
  std::size_t size_bytes() const { return 32 * (1 + z.size()); }
};

/// Signs on behalf of `ring` (public keys) using the secret of
/// `ring[signer_index]`. Throws if the index or key is inconsistent.
RingSignature ring_sign(const std::vector<G1>& ring, std::size_t signer_index,
                        const Fr& secret, BytesView message,
                        crypto::Drbg& rng);

bool ring_verify(const std::vector<G1>& ring, BytesView message,
                 const RingSignature& sig);

}  // namespace peace::baseline
