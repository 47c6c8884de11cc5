// Principals, key certificates, and trust policy (paper §4).
//
// "Each principal's public key is stored as an attribute of that
//  principal's RC metadata.  A signed subset of RC metadata serves as a key
//  certificate.  Before a client will consider a signed statement to be
//  valid, the key certificate must itself be signed by a party whom that
//  client trusts for that particular purpose."
//
// Certificate here is exactly that: a (subject URI, subject key, purposes)
// triple signed by an issuer.  TrustStore captures the per-purpose trust
// decisions of a client or service.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "util/result.hpp"

namespace snipe::crypto {

/// The purposes a certificate can be trusted for; a party may be trusted
/// for some purposes and not others (§4).
enum class TrustPurpose : std::uint8_t {
  identify_host,     ///< attest that a key belongs to a host
  identify_user,     ///< attest that a key belongs to a user
  grant_resources,   ///< authorize use of managed resources (RM role)
  sign_mobile_code,  ///< vouch for mobile code integrity (§3.6)
};

const char* trust_purpose_name(TrustPurpose p);

/// A principal: a named key holder (user, host, RM, code signer).
struct Principal {
  std::string uri;  ///< the principal's distinguished URI
  KeyPair keys;

  static Principal create(const std::string& uri, Rng& rng, std::size_t bits = 512);
};

/// A key certificate: a signed binding of subject URI -> public key for a
/// set of purposes.  The canonical encoding (what gets signed) covers every
/// field except the signature.
struct Certificate {
  std::string subject;  ///< subject's URI
  PublicKey subject_key;
  std::vector<TrustPurpose> purposes;
  std::string issuer;  ///< issuer's URI
  Bytes signature;

  /// The byte string the issuer signs.
  Bytes canonical_bytes() const;
  /// Issues a certificate for `subject` signed by `issuer`.
  static Certificate issue(const Principal& issuer, const std::string& subject,
                           const PublicKey& subject_key,
                           std::vector<TrustPurpose> purposes);
  /// Verifies the signature against the claimed issuer's key.
  bool verify_with(const PublicKey& issuer_key) const;
  bool covers(TrustPurpose p) const;

  /// On the wire: the canonical bytes as a blob, then the signature.
  template <class Io>
  void fields(Io& io) {
    io(codec::in_blob(subject, codec::in_blob(subject_key), purposes, issuer), signature);
  }
  Result<void> check() const {
    if (purposes.size() > 16) return Error{Errc::corrupt, "too many purposes"};
    return ok_result();
  }
};

/// A generic signed statement: arbitrary payload + signer URI + signature.
/// Used for §4's user grants and host attestations, and for signed mobile
/// code descriptions (§3.1).
struct SignedStatement {
  Bytes payload;
  std::string signer;
  Bytes signature;

  static SignedStatement make(const Principal& signer, Bytes payload);
  bool verify_with(const PublicKey& signer_key) const;

  template <class Io>
  void fields(Io& io) {
    io(payload, signer, signature);
  }
};

/// Per-client trust policy: which (issuer URI, key) pairs are trusted for
/// which purposes, plus certificate-chain evaluation of depth one (issuer
/// signs subject), which is all §4's flows need.
class TrustStore {
 public:
  /// Trusts `issuer_key` (held by `issuer_uri`) for `purpose`.
  void trust(const std::string& issuer_uri, const PublicKey& issuer_key, TrustPurpose purpose);

  /// Full §4 check: the certificate must carry the purpose, its issuer must
  /// be trusted for that purpose, and the signature must verify with the
  /// trusted issuer key (not a key supplied by the presenter).
  Result<void> validate(const Certificate& cert, TrustPurpose purpose) const;

  /// Validates a signed statement: finds a certificate binding the signer's
  /// key, validates it for `identity_purpose`, then checks the signature.
  Result<void> validate_statement(const SignedStatement& stmt, const Certificate& signer_cert,
                                  TrustPurpose identity_purpose) const;

  /// Validates a statement signed *directly* by a trusted issuer (no
  /// certificate chain) — the common case for RM-issued resource
  /// authorizations, since "a resource manager must be trusted by the
  /// resources that it manages" (§4).
  Result<void> validate_direct(const SignedStatement& stmt, TrustPurpose purpose) const;

 private:
  struct IssuerKey {
    PublicKey key;
    std::set<TrustPurpose> purposes;
  };
  std::map<std::string, IssuerKey> issuers_;
};

}  // namespace snipe::crypto
