// Signed metadata subsets (§2.1, §4).
//
// "Subsets of metadata can also be cryptographically signed ... A signed
//  subset of RC metadata serves as a key certificate."
//
// A SignedSubset binds a URI plus a chosen set of (name, value) assertions
// to a signer.  The canonical form sorts the pairs, so signing is
// insensitive to assertion order.  Helpers store/load the subset as a
// regular RC assertion, which is how playgrounds fetch code signatures and
// clients fetch key certificates from the same registry as everything else.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "crypto/identity.hpp"
#include "rcds/assertion.hpp"

namespace snipe::rcds {

struct SignedSubset {
  std::string uri;  ///< the resource the metadata describes
  std::vector<std::pair<std::string, std::string>> entries;
  std::string signer;  ///< signer's URI
  Bytes signature;

  /// The byte string that is signed (uri + sorted entries + signer).
  Bytes canonical_bytes() const;

  static SignedSubset sign(const crypto::Principal& signer, std::string uri,
                           std::vector<std::pair<std::string, std::string>> entries);
  bool verify_with(const crypto::PublicKey& signer_key) const;

  template <class Io>
  void fields(Io& io) {
    io(uri, entries, signer, signature);
  }

  /// Stores/loads as the RC assertion ("rcds:sig:<label>", hex(encode)).
  Op to_op(const std::string& label) const;
  static Result<SignedSubset> from_assertion_value(const std::string& hex_value);
};

}  // namespace snipe::rcds
