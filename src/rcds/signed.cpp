#include "rcds/signed.hpp"

#include <algorithm>

namespace snipe::rcds {

Bytes SignedSubset::canonical_bytes() const {
  auto sorted = entries;
  std::sort(sorted.begin(), sorted.end());
  return encode(uri, sorted, signer);
}

SignedSubset SignedSubset::sign(const crypto::Principal& signer, std::string uri,
                                std::vector<std::pair<std::string, std::string>> entries) {
  SignedSubset s;
  s.uri = std::move(uri);
  s.entries = std::move(entries);
  s.signer = signer.uri;
  s.signature = crypto::sign(signer.keys.priv, s.canonical_bytes());
  return s;
}

bool SignedSubset::verify_with(const crypto::PublicKey& signer_key) const {
  return crypto::verify(signer_key, canonical_bytes(), signature);
}

Op SignedSubset::to_op(const std::string& label) const {
  return op_set("rcds:sig:" + label, hex_encode(encode(*this)));
}

Result<SignedSubset> SignedSubset::from_assertion_value(const std::string& hex_value) {
  auto bytes = hex_decode(hex_value);
  if (!bytes) return bytes.error();
  return decode<SignedSubset>(bytes.value());
}

}  // namespace snipe::rcds
