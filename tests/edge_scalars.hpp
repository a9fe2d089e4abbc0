// Edge scalars the curve fast paths must agree on with their oracles.
#pragma once

#include <vector>

#include "curve/bn254.hpp"

namespace peace::curve {

/// 0, 1, 2, r-2, r-1, r, r+1, 2r, and the all-ones pattern.
inline std::vector<math::U256> edge_scalars() {
  using math::BigInt;
  const BigInt r = BigInt::from_u256(Bn254::get().r);
  std::vector<math::U256> ks = {math::U256(0), math::U256(1), math::U256(2),
                                (r - BigInt(2)).to_u256(),
                                (r - BigInt(1)).to_u256(), r.to_u256(),
                                (r + BigInt(1)).to_u256(),
                                (r + r).to_u256()};
  math::U256 ones;
  ones.limb = {~0ull, ~0ull, ~0ull, ~0ull};
  ks.push_back(ones);
  return ks;
}

}  // namespace peace::curve
